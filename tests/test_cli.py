import argparse
import dataclasses
import io
import json
import os
import re
import signal
import subprocess
import sys
import weakref
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pairbox import cli, evaluation, geometry, pairnms
from pairbox.cli import build_parser, main
from pairbox.evaluation import EvalConfig, FrameDetections, evaluate
from pairbox.formats import (
    read_dataset,
    read_detections,
    write_dataset,
    write_detections,
)
from pairbox.evaluation import FrameAnnotations
from pairbox.pairnms import Detection
from pairbox.simulation import MockDetectorSpec, ShiftSpec, apply_shift, mock_detect

from mutations import mutated_text
from oracles import naive_nms
from scenes import det_at, detection_table, four_frame_fixture, gt, gt_table

SAMPLE = Path(__file__).parent / "data" / "sample_dataset.jsonl"


def gt_as_detections(dataset_path, out_path):
    dets = [
        FrameDetections(f.frame_id, tuple(Detection(o.pair, 1.0) for o in f.objects))
        for f in list(read_dataset(dataset_path))
    ]
    write_detections(detection_table(dets), out_path)
    return dets


@pytest.mark.usefixtures("forced_split")
class TestEvaluateCommand:
    def test_gt_as_detections_all_zero(self, tmp_path, capsys):
        det_path = tmp_path / "dets.jsonl"
        gt_as_detections(SAMPLE, det_path)
        rc = main(["evaluate", str(SAMPLE), str(det_path)])
        out = capsys.readouterr().out
        assert rc == 0
        rows = out.strip().splitlines()
        assert rows[0].startswith("variant")
        assert len(rows) == 7
        assert all("0.0000" in r for r in rows[1:])

    def test_writes_table_csv_and_svg(self, tmp_path):
        det_path = tmp_path / "dets.jsonl"
        gt_as_detections(SAMPLE, det_path)
        out_dir = tmp_path / "out"
        rc = main([
            "evaluate", str(SAMPLE), str(det_path),
            "--out", str(out_dir), "--format", "svg",
        ])
        assert rc == 0
        assert (out_dir / "eval_table.txt").exists()
        csv_text = (out_dir / "eval_curves.csv").read_text(encoding="utf-8")
        assert csv_text.startswith("variant,iou_thresh,score_thresh,fppi,miss_rate\n")
        svg = (out_dir / "eval_curves.svg").read_text(encoding="utf-8")
        assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")

    def test_inputs_are_released_before_the_writes(self, tmp_path, monkeypatch):
        """The CSV and SVG writes, where evaluate peaks, hold no input table."""
        det_path = tmp_path / "dets.jsonl"
        gt_as_detections(SAMPLE, det_path)
        inputs = []

        def watched_evaluate(annotations, detections, config, evaluate=cli.evaluate):
            inputs.extend([weakref.ref(annotations), weakref.ref(detections)])
            return evaluate(annotations, detections, config)

        def write_curve_csv(report, dst, write=cli.write_curve_csv):
            assert [ref() for ref in inputs] == [None, None]
            return write(report, dst)

        monkeypatch.setattr(cli, "evaluate", watched_evaluate)
        monkeypatch.setattr(cli, "write_curve_csv", write_curve_csv)
        for fmt in ("csv", "svg"):
            inputs.clear()
            assert _run_main(["evaluate", str(SAMPLE), str(det_path), "--out",
                              str(tmp_path / "out"), "--format", fmt]) == (0, "")
            assert len(inputs) == 2

    def test_csv_with_out_is_formatted_once(self, tmp_path, monkeypatch, capsys):
        """Stdout is the written ``eval_curves.csv``, not a second formatting."""
        det_path = tmp_path / "dets.jsonl"
        gt_as_detections(SAMPLE, det_path)
        written = []
        monkeypatch.setattr(cli, "write_curve_csv", lambda report, dst, write=cli.write_curve_csv:
                            written.append(dst) or write(report, dst))
        out = tmp_path / "out"
        rc = main(["evaluate", str(SAMPLE), str(det_path), "--format", "csv", "--out", str(out)])
        assert rc == 0 and written == [out / "eval_curves.csv"]
        assert capsys.readouterr().out.encode("utf-8") == written[0].read_bytes()

    def test_fixture_table_matches_hand_computed_mr(self, tmp_path, capsys):
        from scenes import FOUR_FRAME_LAMR, four_frame_fixture

        anns, dets = four_frame_fixture()
        gt_path = tmp_path / "gt.jsonl"
        det_path = tmp_path / "dets.jsonl"
        write_dataset(gt_table(anns), gt_path)
        write_detections(detection_table(dets), det_path)
        rc = main(["evaluate", str(gt_path), str(det_path)])
        assert rc == 0
        out = capsys.readouterr().out
        expected = f"{FOUR_FRAME_LAMR:.4f}"  # 0.5291
        assert out.count(expected) == 6

    def test_missing_detection_file_exits_2(self, tmp_path, capsys):
        rc = main(["evaluate", str(SAMPLE), str(tmp_path / "nope.jsonl")])
        assert rc == 2
        assert "nope.jsonl" in capsys.readouterr().err

    def test_integer_too_large_for_a_float_exits_2(self, tmp_path, capsys):
        gt_path = tmp_path / "gt.jsonl"
        huge = "1" + "0" * 400
        gt_path.write_text('{"frame":1,"objects":[{"v":[0,0,%s,10],"t":[0,0,1,10]}]}\n' % huge,
                           encoding="utf-8")
        det_path = tmp_path / "dets.jsonl"
        det_path.write_text('{"frame":1,"dets":[]}\n', encoding="utf-8")
        rc = main(["evaluate", str(gt_path), str(det_path)])
        err = capsys.readouterr().err
        assert rc == 2
        assert f"{gt_path}:1: objects[0].v:" in err
        assert "Traceback" not in err

    def test_no_evaluable_gts_exits_1(self, tmp_path, capsys):
        ds_path = tmp_path / "short.jsonl"
        frames = (FrameAnnotations(0, (gt(10, 10, h=30),)),)
        write_dataset(gt_table(frames), ds_path)
        det_path = tmp_path / "dets.jsonl"
        gt_as_detections(ds_path, det_path)
        rc = main(["evaluate", str(ds_path), str(det_path)])
        assert rc == 1
        assert "evaluable" in capsys.readouterr().err

    def test_unknown_frame_exits_1(self, tmp_path, capsys):
        det_path = tmp_path / "dets.jsonl"
        ghost = [FrameDetections("ghost", (det_at(0, 0, 0.5),))]
        write_detections(detection_table(ghost), det_path)
        rc = main(["evaluate", str(SAMPLE), str(det_path)])
        assert rc == 1
        assert "ghost" in capsys.readouterr().err


@pytest.mark.usefixtures("forced_split")
class TestNmsCommand:
    def test_duplicate_thermal_boxes_one_survivor(self, tmp_path, capsys):
        det_path = tmp_path / "dets.jsonl"
        dets = [
            FrameDetections(
                0,
                (
                    Detection(det_at(100, 100, 0.9).pair, 0.9),
                    Detection(det_at(100, 100, 0.8).pair, 0.8),
                ),
            )
        ]
        write_detections(detection_table(dets), det_path)
        out_path = tmp_path / "kept.jsonl"
        rc = main(["nms", str(det_path), "--iou-thresh", "0.5", "--out", str(out_path)])
        assert rc == 0
        kept = read_detections(out_path)
        assert len(kept[0].detections) == 1
        assert kept[0].detections[0].score == 0.9

    @settings(derandomize=True, deadline=None)
    @given(
        frames=st.lists(
            st.lists(
                st.tuples(
                    st.tuples(*(st.integers(0, 6),) * 2, *(st.integers(0, 4),) * 2),
                    st.sampled_from([0.25, 0.5, 1.0]),  # few scores: ties
                ),
                max_size=8,
            ),
            min_size=1, max_size=4,
        ),
        thresh=st.sampled_from([0.0, 0.3, 0.5, 1.0]),
        max_keep=st.one_of(st.none(), st.integers(0, 4)),
    )
    def test_keeps_each_frames_naive_nms_records(self, tmp_path_factory, frames, thresh,
                                                  max_keep):
        work = tmp_path_factory.mktemp("nms")
        records = [
            {"frame": f, "dets": [
                {"v": [x + 40.0, float(y), float(w), float(h)],
                 "t": [float(x), float(y), float(w), float(h)], "score": s}
                for (x, y, w, h), s in dets
            ]}
            for f, dets in enumerate(frames)
        ]
        (work / "dets.jsonl").write_text(
            "".join(json.dumps(r) + "\n" for r in records), encoding="utf-8"
        )
        argv = ["nms", str(work / "dets.jsonl"), "--iou-thresh", str(thresh),
                "--out", str(work / "kept.jsonl")]
        if max_keep is not None:
            argv += ["--max-keep", str(max_keep)]
        assert _run_main(argv) == (0, "")
        lines = (work / "kept.jsonl").read_text(encoding="utf-8").splitlines()
        assert len(lines) == len(records)
        for line, record in zip(lines, records):
            dets = record["dets"]
            keep = naive_nms([d["t"] for d in dets], [d["score"] for d in dets], thresh)
            assert json.loads(line) == {"frame": record["frame"],
                                        "dets": [dets[i] for i in keep][:max_keep]}

    def test_canonical_file_builds_no_box_or_detection(self, tmp_path, monkeypatch):
        anns, dets = four_frame_fixture()
        det_path = tmp_path / "dets.jsonl"
        write_detections(detection_table(dets), det_path)
        built = []
        for cls in (geometry.Box, pairnms.Detection):
            check = cls.__post_init__

            def counted(self, check=check):
                built.append(type(self).__name__)
                check(self)

            monkeypatch.setattr(cls, "__post_init__", counted)
        rc = main(["nms", str(det_path), "--iou-thresh", "0.5", "--out", str(tmp_path / "k.jsonl")])
        assert rc == 0
        assert built == []
        assert (tmp_path / "k.jsonl").read_bytes() == det_path.read_bytes()  # nothing overlaps


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _outcome(argv, out: Path):
    """Exit code, stderr and the output file's bytes (None if absent) of ``main(argv)``."""
    out.unlink(missing_ok=True)
    rc, err = _run_main([str(a) for a in argv])
    return rc, err, out.read_bytes() if out.exists() else None


# edits of the 4-frame fixture's detection lines that leave an odd last line
ODD_LAST_LINES = [
    lambda lines: lines[:3] + ['{"frame":"f4","dets":[{"box":[50,50,20,60],"score":0.5}]}'],
    lambda lines: lines[:3] + [lines[3].replace('"f4"', "0")],  # the first filler frame's id
    lambda lines: lines[:3] + [lines[3].replace("50", "5\udcff0", 1)],
    lambda lines: [line + "\r" for line in lines],
    lambda lines: lines[:3] + ["", lines[3]],
    lambda lines: lines[:3] + [lines[3].replace("[", "[" + "[" * 100_000 + "]" * 100_000 + ",", 1)],
    lambda lines: lines[:3] + [lines[3].replace("50", "1e101", 1)],
    lambda lines: lines[:3] + [lines[3].replace("50", "1" + "0" * 5000, 1)],
]
ODD_LAST_LINE_IDS = ["single_box", "repeated_id", "bad_utf8", "crlf", "blank_line",
                     "nested_100000_deep", "out_of_bounds_box", "integer_of_5001_digits"]
FILLER_FRAMES = 1000


def _after_filler(dets: Path, edit) -> None:
    """Rewrite ``dets`` as ``FILLER_FRAMES`` one-detection frames, ids 0, 1,
    ..., then its own lines as ``edit`` leaves them: a long odd line at the
    end still starts a later range."""
    filler = [json.dumps({"frame": k, "dets": [{"v": [k, 1.0, 2.0, 4.0], "t": [k, 1.0, 2.0, 4.0],
                                                "score": 0.5}]}) for k in range(FILLER_FRAMES)]
    lines = filler + edit(dets.read_text(encoding="utf-8").splitlines())
    dets.write_bytes("\n".join(lines).encode("utf-8", "surrogateescape") + b"\n")


def _evaluation(gt: Path, dets: Path, out: Path):
    """Exit code, stderr, stdout and the bytes of each file under ``out``
    (a directory as None) of ``evaluate --format svg``, once the files a
    previous run left there are removed."""
    for f in out.glob("*"):
        if f.is_file():
            f.unlink()
    stdout, err = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(err):
        rc = main(["evaluate", str(gt), str(dets), "--format", "svg", "--out", str(out)])
    files = {f.name: f.read_bytes() if f.is_file() else None
             for f in sorted(out.iterdir())} if out.exists() else None
    return rc, err.getvalue(), stdout.getvalue(), files


class TestRanges:
    """``nms``, ``assign`` and ``evaluate`` split into forked ranges write
    the serial bytes, fail with the serial error, and leave no child behind."""

    def _dets(self, tmp_path) -> Path:
        path = tmp_path / "dets.jsonl"
        write_detections(detection_table(four_frame_fixture()[1]), path)
        return path

    @staticmethod
    def _split(monkeypatch):
        """Ranges forced as ``forced_split`` forces them, on five CPUs; the
        range count of each ``map_ranges`` call."""
        counts = []
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3, 4}, raising=False)
        monkeypatch.setattr(cli, "MIN_RANGE_BYTES", 1)
        monkeypatch.setattr(cli, "MIN_RANGE_LABELS", 1)
        monkeypatch.setattr(cli, "MIN_RANGE_POINTS", 1)
        map_ranges = cli.map_ranges
        monkeypatch.setattr(cli, "map_ranges", lambda fn, ranges: counts.append(len(ranges)) or
                            map_ranges(fn, ranges))
        return counts

    @staticmethod
    def _reads(monkeypatch) -> list:
        """The byte span of each ``cli.read_detections`` call in this
        process, ``()`` for a whole file."""
        reads = []
        monkeypatch.setattr(cli, "read_detections", lambda path, *span, read=cli.read_detections:
                            reads.append(span) or read(path, *span))
        return reads

    @staticmethod
    def _assert_whole_reads(reads, rc) -> None:
        """A file the serial reader accepts (exit 0) is read in its ranges
        alone; a refused one once more as a whole, which raises its error."""
        assert [span for span in reads if not span] == ([] if rc == 0 else [()])

    def _eval_inputs(self, tmp_path, edit=None):
        """The 4-frame fixture's ground truth and detections; with ``edit``,
        after ``FILLER_FRAMES`` frames of one GT and one detection each."""
        anns, dets = four_frame_fixture()
        gt_path, det_path = tmp_path / "gt.jsonl", tmp_path / "dets.jsonl"
        write_detections(detection_table(dets), det_path)
        if edit is not None:
            anns = [FrameAnnotations(k, (gt(k, 1.0),)) for k in range(FILLER_FRAMES)] + anns
            _after_filler(det_path, edit)
        write_dataset(gt_table(anns), gt_path)
        return gt_path, det_path

    def test_small_inputs_run_in_one_range(self, tmp_path, monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "map_ranges", lambda fn, ranges: calls.append(ranges) or
                            [fn(r) for r in ranges])
        reads = self._reads(monkeypatch)
        dets = self._dets(tmp_path)
        assert _run_main(["nms", str(dets), "--out", str(tmp_path / "k")]) == (0, "")
        assert _run_main(["assign", str(SAMPLE), "--out", str(tmp_path / "l")]) == (0, "")
        # evaluate reads its one range with read_detections, and writes in one process
        gt_path, dets = self._eval_inputs(tmp_path)
        assert _evaluation(gt_path, dets, tmp_path / "out")[0] == 0
        assert [len(r) for r in calls] == [1, 1, 1] and reads == [(0, dets.stat().st_size)] * 2

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="names a pipe by /dev/fd")
    def test_pipes_are_read_whole(self, tmp_path, monkeypatch):
        """A pipe cannot be sought, so it has no ranges: it is read once, as
        a whole, and gives the outcome of the file it carries."""
        gt, dets = self._eval_inputs(tmp_path)
        out, fds = tmp_path / "kept.jsonl", []
        expected = _outcome(["nms", dets, "--out", out], out), _evaluation(gt, dets, tmp_path / "out")

        def pipe(path: Path) -> str:
            read_fd, write_fd = os.pipe()
            fds.append(read_fd)
            os.write(write_fd, path.read_bytes())  # well under a pipe's capacity
            os.close(write_fd)
            return f"/dev/fd/{read_fd}"

        self._split(monkeypatch)
        try:
            got = (_outcome(["nms", pipe(dets), "--out", out], out),
                   _evaluation(pipe(gt), pipe(dets), tmp_path / "out"))
        finally:
            for fd in fds:
                os.close(fd)
        assert got == expected and expected[0][0] == expected[1][0] == 0

    def test_forced_ranges_write_the_same_bytes(self, tmp_path, monkeypatch):
        split = self._split(monkeypatch)
        dets, out = self._dets(tmp_path), tmp_path / "kept.jsonl"
        assert _run_main(["nms", str(dets), "--iou-thresh", "0.3", "--out", str(out)]) == (0, "")
        assert _run_main(["assign", str(SAMPLE), "--out", str(tmp_path / "l")]) == (0, "")
        assert split[0] > 1 and split[1] == min(5, len(read_dataset(SAMPLE)))
        assert out.read_bytes() == dets.read_bytes()
        _no_child_left()

    @pytest.mark.parametrize("edit", ODD_LAST_LINES, ids=ODD_LAST_LINE_IDS)
    def test_an_odd_line_in_a_later_range_gives_the_serial_outcome(self, tmp_path, monkeypatch,
                                                                    edit):
        dets, out = self._dets(tmp_path), tmp_path / "kept.jsonl"
        _after_filler(dets, edit)
        argv = ["nms", dets, "--out", out]
        with monkeypatch.context() as serial:
            serial.setattr(cli, "_line_ranges", lambda path: [])
            expected = _outcome(argv, out)
        split_counts, reads = self._split(monkeypatch), self._reads(monkeypatch)
        assert _outcome(argv, out) == expected
        assert split_counts[0] > 1  # the last range holds the odd last line
        self._assert_whole_reads(reads, expected[0])
        _no_child_left()

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(data=st.data())
    def test_mutated_files_give_the_serial_outcome(self, tmp_path_factory, data):
        work = tmp_path_factory.mktemp("ranges")
        dets, out = self._dets(work), work / "kept.jsonl"
        text = data.draw(mutated_text(dets.read_text(encoding="utf-8"), bad_bytes=True))
        dets.write_text(text, encoding="utf-8", errors="surrogateescape")
        argv = ["nms", dets, "--iou-thresh", "0.3", "--out", out]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cli, "_line_ranges", lambda path: [])
            expected = _outcome(argv, out)
        with pytest.MonkeyPatch.context() as mp:
            self._split(mp)
            assert _outcome(argv, out) == expected
        _no_child_left()

    @pytest.mark.parametrize("death", [lambda: os._exit(3),
                                       lambda: os.kill(os.getpid(), signal.SIGKILL)],
                             ids=["exit_3", "sigkill"])
    def test_a_child_that_dies_is_run_again_in_the_parent(self, tmp_path, monkeypatch, death):
        dets = self._dets(tmp_path)
        argvs = [["nms", dets, "--iou-thresh", "0.3", "--out", tmp_path / "kept.jsonl"],
                 ["assign", SAMPLE, "--sample-batch", "8", "--out", tmp_path / "labels.jsonl"]]
        expected = [_outcome(argv, argv[-1]) for argv in argvs]
        parent = os.getpid()
        for name in ("paired_nms", "assign_rpn"):
            def dying(*args, original=getattr(cli, name)):
                if os.getpid() != parent:
                    death()
                return original(*args)

            monkeypatch.setattr(cli, name, dying)
        counts = self._split(monkeypatch)
        assert [_outcome(argv, argv[-1]) for argv in argvs] == expected
        assert counts[0] > 1 and counts[1] > 1 and expected[0][0] == expected[1][0] == 0
        _no_child_left()

    def test_a_parse_error_leaves_no_child(self, tmp_path, monkeypatch):
        dets = self._dets(tmp_path)
        lines = dets.read_text(encoding="utf-8").splitlines()
        dets.write_text("\n".join(lines[:3] + ["{"]) + "\n", encoding="utf-8")
        self._split(monkeypatch)
        rc, err, kept = _outcome(["nms", dets, "--out", tmp_path / "kept.jsonl"],
                                 tmp_path / "kept.jsonl")
        assert (rc, kept) == (2, None) and f"{dets}:4: invalid JSON" in err
        _no_child_left()

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="writes to /dev/full")
    def test_a_write_that_fails_between_ranges_leaves_no_child(self, monkeypatch):
        """``assign`` writes each range as it comes in, so its write can fail
        while later ranges still run; they are killed and reaped."""
        argv = ["assign", str(SAMPLE), "--out", "/dev/full"]
        expected = _run_main(argv)
        counts = self._split(monkeypatch)
        assert _run_main(argv) == expected and counts[0] > 1
        assert expected[0] == 2 and "No space left on device" in expected[1]
        _no_child_left()

    def test_forced_evaluation_ranges_write_the_same_bytes(self, tmp_path, monkeypatch):
        gt, dets = self._eval_inputs(tmp_path, edit=lambda lines: lines)
        expected = _evaluation(gt, dets, tmp_path / "out")
        split = self._split(monkeypatch)
        assert _evaluation(gt, dets, tmp_path / "out") == expected
        assert expected[0] == 0 and split[0] > 1 and split[1] == 2
        assert sorted(expected[3]) == ["eval_curves.csv", "eval_curves.svg", "eval_table.txt"]
        _no_child_left()

    @pytest.mark.parametrize("edit", ODD_LAST_LINES, ids=ODD_LAST_LINE_IDS)
    def test_an_odd_line_in_a_later_range_gives_the_serial_evaluation(self, tmp_path, monkeypatch,
                                                                       edit):
        gt, dets = self._eval_inputs(tmp_path, edit)
        with monkeypatch.context() as serial:
            serial.setattr(cli, "_line_ranges", lambda path: [])
            expected = _evaluation(gt, dets, tmp_path / "out")
        split_counts, reads = self._split(monkeypatch), self._reads(monkeypatch)
        assert _evaluation(gt, dets, tmp_path / "out") == expected
        assert split_counts[0] > 1  # the last range holds the odd last line
        self._assert_whole_reads(reads, expected[0])
        _no_child_left()

    @pytest.mark.parametrize("death", [lambda: os._exit(3),
                                       lambda: os.kill(os.getpid(), signal.SIGKILL)],
                             ids=["exit_3", "sigkill"])
    @pytest.mark.parametrize("phase", ["read_detections", "write_curve_csv"],
                             ids=["parse", "write"])
    def test_a_child_that_dies_in_an_evaluation_is_run_again(self, tmp_path, monkeypatch, death,
                                                             phase):
        gt, dets = self._eval_inputs(tmp_path, edit=lambda lines: lines)
        expected = _evaluation(gt, dets, tmp_path / "out")
        parent = os.getpid()

        def dying(*args, original=getattr(cli, phase)):
            if os.getpid() != parent:
                death()
            return original(*args)

        monkeypatch.setattr(cli, phase, dying)
        counts = self._split(monkeypatch)
        assert _evaluation(gt, dets, tmp_path / "out") == expected
        assert expected[0] == 0 and counts[0] > 1 and counts[1] == 2
        _no_child_left()

    def test_an_unwritable_csv_gives_the_serial_error(self, tmp_path, monkeypatch):
        gt, dets = self._eval_inputs(tmp_path, edit=lambda lines: lines)
        out = tmp_path / "out"
        (out / "eval_curves.csv").mkdir(parents=True)
        expected = _evaluation(gt, dets, out)
        counts = self._split(monkeypatch)
        assert _evaluation(gt, dets, out) == expected
        rc, err, stdout, files = expected
        assert (rc, stdout, sorted(files)) == (2, "", ["eval_curves.csv", "eval_table.txt"])
        assert "eval_curves.csv" in err and counts[1] == 2
        _no_child_left()



@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="counts threads in /proc")
class TestEntryPoint:
    """``import pairbox`` imports no numpy, and the CLI's own process starts
    no BLAS thread pool, so it forks with one thread."""

    @staticmethod
    def _python(code: str, **env) -> str:
        environ = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        src = str(Path(cli.__file__).resolve().parents[1])
        environ["PYTHONPATH"] = os.pathsep.join(filter(None, [src, environ.get("PYTHONPATH")]))
        done = subprocess.run([sys.executable, "-c", code], env={**environ, **env},
                              capture_output=True, text=True, check=True)
        return done.stdout.splitlines()[-1]

    def test_import_leaves_numpy_unloaded(self):
        code = "import sys, pairbox\nprint('numpy' in sys.modules, pairbox.Box.__name__)"
        assert self._python(code) == "False Box"

    # the thread count and the BLAS setting of a process that ran the CLI
    CLI_RUN = ("import os, sys\n"
               "from pairbox.__main__ import main\n"
               "sys.argv = ['pairbox', '--help']\n"
               "try:\n    main()\nexcept SystemExit:\n    pass\n"
               "assert 'numpy' in sys.modules\n"
               "print(len(os.listdir('/proc/self/task')), os.environ['OPENBLAS_NUM_THREADS'])\n")

    def test_the_cli_process_has_one_thread(self):
        assert self._python(self.CLI_RUN) == "1 1"

    def test_a_users_own_setting_wins(self):
        assert self._python(self.CLI_RUN, OPENBLAS_NUM_THREADS="2").split()[1] == "2"

class TestMapRanges:
    def test_equals_the_serial_loop(self):
        def fn(r):
            return None if r == 2 else (r, "x" * 100_000 * r)  # more than a pipe holds

        ranges = [0, 1, 2, 3]
        assert list(cli.map_ranges(fn, ranges)) == [fn(r) for r in ranges]
        assert list(cli.map_ranges(fn, [5])) == [fn(5)] and list(cli.map_ranges(fn, [])) == []
        _no_child_left()

    @pytest.mark.parametrize("bad", [0, 2])
    def test_the_first_failing_range_raises_its_error(self, bad):
        """In the parent's own range or in a child's, which the parent then
        runs itself; the ranges after it are killed and reaped."""
        def fn(r):
            if r >= bad:
                raise ValueError(f"range {r}")
            return r

        with pytest.raises(ValueError, match=f"^range {bad}$"):
            list(cli.map_ranges(fn, [0, 1, 2, 3]))
        _no_child_left()

    def test_a_failed_fork_runs_the_range_here(self, monkeypatch):
        def no_fork():
            raise BlockingIOError("no fork")

        monkeypatch.setattr(os, "fork", no_fork)
        assert list(cli.map_ranges(lambda r: r * 2, [1, 2, 3])) == [2, 4, 6]
        _no_child_left()

    def test_yields_the_first_range_before_collecting_the_others(self):
        """Each result comes as soon as it is in, every child already started."""
        parent = os.getpid()
        results = cli.map_ranges(lambda r: (r, os.getpid() == parent), [0, 1, 2])
        assert next(results) == (0, True)
        assert list(results) == [(1, False), (2, False)]
        _no_child_left()

    def test_closing_early_reaps_every_child(self):
        results = cli.map_ranges(lambda r: r, [0, 1, 2])
        assert next(results) == 0
        results.close()
        _no_child_left()


class TestAnnotationColumns:
    """The commands that read an annotation file work on its columns."""

    @pytest.mark.parametrize("argv", [
        ["evaluate", "{gt}", "{dets}", "--format", "svg", "--out", "{out}"],
        ["shift-sweep", "{gt}", "--shift", "0", "-10", "--mock", "single_box",
         "--center-sigma", "2", "--fp-per-frame", "1", "--out", "{out}"],
        ["shift-sweep", "{gt}", "--shift", "0", "10", "--mock", "paired",
         "--center-sigma", "2", "--fp-per-frame", "1", "--out", "{out}"],
        ["assign", "{gt}", "--grid-stride", "64", "--sample-batch", "8", "--out", "{out}.jsonl"],
    ], ids=["evaluate", "shift-sweep-single_box", "shift-sweep-paired", "assign"])
    def test_canonical_files_build_no_annotation_object_or_box(self, tmp_path, monkeypatch,
                                                               argv):
        gt_path, det_path = tmp_path / "gt.jsonl", tmp_path / "dets.jsonl"
        assert main(["generate", "--frames", "20", "--seed", "3", "--out", str(gt_path)]) == 0
        spec = MockDetectorSpec(center_noise_sigma=2.0, fp_per_frame=1.0, seed=1)
        write_detections(mock_detect(read_dataset(gt_path), spec), det_path)
        built = []
        for cls in (geometry.Box, evaluation.GtObject):
            check = cls.__post_init__

            def counted(self, check=check):
                built.append(type(self).__name__)
                check(self)

            monkeypatch.setattr(cls, "__post_init__", counted)
        paths = {"gt": gt_path, "dets": det_path, "out": tmp_path / "out"}
        assert _run_main([a.format(**paths) for a in argv]) == (0, "")
        assert built == []


def _run_main(argv):
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        rc = main(argv)
    return rc, err.getvalue()


class TestJsonlReaderFuzz:
    """``evaluate`` and ``nms`` on valid files with one line broken: every
    outcome is an exit code, and every parse error names the file and line."""

    @settings(derandomize=True, deadline=None)
    @given(data=st.data(), target=st.sampled_from(["gt", "dets"]))
    def test_broken_line_exits_cleanly(self, tmp_path_factory, data, target):
        anns, dets = four_frame_fixture()
        work = tmp_path_factory.mktemp("fuzz")
        paths = {"gt": work / "gt.jsonl", "dets": work / "dets.jsonl"}
        write_dataset(gt_table(anns), paths["gt"])
        write_detections(detection_table(dets), paths["dets"])
        broken = paths[target]
        text = data.draw(mutated_text(broken.read_text(encoding="utf-8"), bad_bytes=True))
        broken.write_text(text, encoding="utf-8", errors="surrogateescape")
        runs = [["evaluate", str(paths["gt"]), str(paths["dets"])]]
        if target == "dets":
            runs.append(["nms", str(paths["dets"]), "--out", str(work / "kept.jsonl")])
        for argv in runs:
            rc, err = _run_main(argv)
            assert rc in (0, 1, 2), (argv[0], rc, err)  # and no exception escaped main
            if not text.isascii():  # a byte that is not UTF-8
                assert rc == 2, (argv[0], rc, err)
            if rc == 2:
                assert re.search(re.escape(f"{broken}:") + r"\d+: ", err), err


class TestJsonDocumentFuzz:
    """``assign --anchors`` and ``losses`` on valid one-line documents with
    one thing broken: every outcome is an exit code, and every parse error
    names the file."""

    ANCHORS = {"anchors": [{"v": [3, 0, 17, 70], "t": [3.5, 0, 17, 70]},
                           {"v": [300, 300, 17, 70], "t": [300, 300, 17, 70]}]}
    SAMPLES = {
        "rpn": {
            "cfg": {"lambda": 1.0, "n_cls": 2, "n_reg": 1},
            "samples": [
                {"logit": 0.3, "label": 1, "pred_v": [0.2, 0, 0, 0], "pred_t": [0, 0.1, 0, 0],
                 "target_v": [0, 0, 0, 0], "target_t": [0, 0, 0.5, 0]},
                {"logit": -1.0, "label": 0},
            ],
        },
        "detector": {
            "lambda": 1.0,
            "samples": [
                {"scores": [0.1, -0.4], "true_class": 1, "pred_v": [0.5, 0, 0, 0],
                 "pred_t": [0, 0, 0, 0], "target_v": [0, 0, 0, 0], "target_t": [0, 0, 0, 0]},
                {"scores": [0.2, 0.3], "true_class": 0},
            ],
        },
    }

    @settings(derandomize=True, deadline=None)
    @given(data=st.data(), target=st.sampled_from(["anchors", "samples"]))
    def test_broken_document_exits_cleanly(self, tmp_path_factory, data, target):
        work = tmp_path_factory.mktemp("fuzz")
        gt_path = work / "gt.jsonl"
        write_dataset(gt_table((FrameAnnotations(0, (gt(0, 0, w=17, h=70),)),)), gt_path)
        doc = work / f"{target}.json"
        valid = json.dumps(self.ANCHORS if target == "anchors" else self.SAMPLES)
        text = data.draw(mutated_text(valid, bad_bytes=True))
        doc.write_text(text, encoding="utf-8", errors="surrogateescape")
        if target == "anchors":
            argv = ["assign", str(gt_path), "--anchors", str(doc), "--sample-batch", "2",
                    "--out", str(work / "labels.jsonl")]
        else:
            argv = ["losses", str(doc), "--grad-check"]
        rc, err = _run_main(argv)  # no exception may escape main
        assert rc in (0, 1, 2), (rc, err)
        if not text.isascii():  # a byte that is not UTF-8
            assert rc == 2, err
        if rc == 2:
            assert err.startswith(f"error: {doc}:"), err


@pytest.mark.usefixtures("forced_split")
class TestUndecodableInput:
    """A byte that is not UTF-8, or JSON the decoder refuses, in any input
    file exits 2 naming file and line."""

    def _inputs(self, tmp_path):
        anns, dets = four_frame_fixture()
        paths = {name: tmp_path / name for name in ("gt.jsonl", "dets.jsonl", "a.json", "s.json")}
        write_dataset(gt_table(anns), paths["gt.jsonl"])
        write_detections(detection_table(dets), paths["dets.jsonl"])
        paths["a.json"].write_text('{"anchors":\n[{"v":[0,0,1,1],"t":[0,0,1,1]}]}\n')
        paths["s.json"].write_text('{"rpn":\n{"samples":[]}}\n')
        return paths

    CASES = [
        (["evaluate", "gt.jsonl", "dets.jsonl"], "gt.jsonl"),
        (["evaluate", "gt.jsonl", "dets.jsonl"], "dets.jsonl"),
        (["nms", "dets.jsonl", "--out", "kept.jsonl"], "dets.jsonl"),
        (["assign", "gt.jsonl", "--anchors", "a.json", "--out", "l.jsonl"], "a.json"),
        (["losses", "s.json"], "s.json"),
    ]

    def _run(self, tmp_path, paths, command):
        return _run_main([str(paths.get(a, tmp_path / a)) if "." in a else a for a in command])

    @pytest.mark.parametrize("command, broken", CASES)
    def test_exits_2_naming_the_line(self, tmp_path, command, broken):
        paths = self._inputs(tmp_path)
        lines = paths[broken].read_bytes().split(b"\n")
        lines[1] = lines[1][:5] + b"\xff" + lines[1][5:]
        paths[broken].write_bytes(b"\n".join(lines))
        rc, err = self._run(tmp_path, paths, command)
        assert rc == 2
        assert err == f"error: {paths[broken]}:2: invalid UTF-8 (byte 0xff)\n"

    @pytest.mark.parametrize("value", ["1" + "0" * 5000, "[" * 100_000 + "]" * 100_000],
                             ids=["integer_of_5001_digits", "nested_100000_deep"])
    @pytest.mark.parametrize("command, broken", CASES)
    def test_json_the_decoder_refuses_exits_2_naming_the_line(self, tmp_path, command, broken,
                                                              value):
        """JSON that ``json.loads`` refuses with something other than a syntax
        error: a record's line in a JSONL file, line 1 in a JSON document."""
        paths = self._inputs(tmp_path)
        lines = paths[broken].read_text(encoding="utf-8").split("\n")
        lines[1] = lines[1].replace("[", f"[{value},", 1)
        paths[broken].write_text("\n".join(lines), encoding="utf-8")
        rc, err = self._run(tmp_path, paths, command)
        line = 2 if broken.endswith(".jsonl") else 1
        assert rc == 2, err
        assert err.startswith(f"error: {paths[broken]}:{line}: invalid JSON ("), err
        assert "set_int_max_str_digits" not in err  # advice a CLI user cannot act on
        if value.startswith("1"):
            limit = sys.get_int_max_str_digits()
            assert f"invalid JSON (integer of more than {limit} digits)" in err, err


@pytest.mark.usefixtures("forced_split")
class TestAssignCommand:
    def test_ignored_objects_label_as_if_absent(self, tmp_path):
        ignored = dataclasses.replace(gt(96, 200, w=40, h=100), ignore=True)
        kept = (gt(90, 190, w=41, h=100), gt(300, 100, w=20, h=50))
        paths = {"with": tmp_path / "with.jsonl", "without": tmp_path / "without.jsonl"}
        write_dataset(gt_table([FrameAnnotations(0, (kept[0], ignored, kept[1])),
                                           FrameAnnotations(1, (ignored,))]), paths["with"])
        write_dataset(gt_table([FrameAnnotations(0, kept), FrameAnnotations(1, ())]),
                      paths["without"])
        for name, path in paths.items():
            assert main(["assign", str(path), "--grid-stride", "32", "--sample-batch", "16",
                         "--out", str(tmp_path / f"{name}.labels")]) == 0
        labels = (tmp_path / "with.labels").read_bytes()
        assert labels == (tmp_path / "without.labels").read_bytes()
        records = [json.loads(line) for line in labels.splitlines()]
        assert 1 in records[0]["labels"] and 1 not in records[1]["labels"]

    def test_anchor_at_070_is_positive(self, tmp_path):
        ds_path = tmp_path / "gt.jsonl"
        # GT box (0,0,17,10); anchor (3,0,17,10) overlaps at exactly 14/20 = 0.7
        frames = (FrameAnnotations(0, (gt(0, 0, w=17, h=70),)),)
        write_dataset(gt_table(frames), ds_path)
        anchors_path = tmp_path / "anchors.json"
        anchors_path.write_text(
            json.dumps(
                {
                    "anchors": [
                        {"v": [3, 0, 17, 70], "t": [3, 0, 17, 70]},
                        {"v": [300, 300, 17, 70], "t": [300, 300, 17, 70]},
                    ]
                }
            ),
            encoding="utf-8",
        )
        out_path = tmp_path / "labels.jsonl"
        rc = main([
            "assign", str(ds_path), "--anchors", str(anchors_path), "--out", str(out_path),
        ])
        assert rc == 0
        record = json.loads(out_path.read_text(encoding="utf-8").splitlines()[0])
        assert record["labels"] == [1, 0]
        assert record["matched_gt"] == [0, -1]
        assert record["max_ioum"][0] == 0.7

    def test_sampling_deterministic(self, tmp_path):
        ds_path = tmp_path / "gt.jsonl"
        frames = (FrameAnnotations(0, (gt(100, 100, w=20, h=70),)),)
        write_dataset(gt_table(frames), ds_path)
        outs = []
        for name in ("a.jsonl", "b.jsonl"):
            out_path = tmp_path / name
            rc = main([
                "assign", str(ds_path), "--out", str(out_path),
                "--sample-batch", "32", "--seed", "11",
            ])
            assert rc == 0
            outs.append(out_path.read_bytes())
        assert outs[0] == outs[1]
        record = json.loads(outs[0].decode().splitlines()[0])
        assert "selected" in record
        assert len(record["selected"]) <= 32

    def test_detector_stage_samples_an_empty_frame_as_an_empty_batch(self, tmp_path):
        ds_path = tmp_path / "gt.jsonl"
        frames = (FrameAnnotations(0, (gt(100, 100, w=20, h=70),)), FrameAnnotations(1, ()))
        write_dataset(gt_table(frames), ds_path)
        out_path = tmp_path / "labels.jsonl"
        assert _run_main(["assign", str(ds_path), "--stage", "detector",
                          "--sample-batch", "8", "--out", str(out_path)]) == (0, "")
        first, empty = map(json.loads, out_path.read_text(encoding="utf-8").splitlines())
        assert 0 < len(first["selected"]) <= 8
        assert set(empty["labels"]) == {-1}  # no GT: every RoI falls below the negative band
        assert empty["selected"] == []

    def test_oversized_anchor_grid_exits_1(self, tmp_path, capsys):
        ds_path = tmp_path / "gt.jsonl"
        write_dataset(gt_table((FrameAnnotations(0, (gt(0, 0),)),)), ds_path)
        rc = main([
            "assign", str(ds_path), "--grid-stride", "0.001", "--out", str(tmp_path / "l.jsonl"),
        ])
        err = capsys.readouterr().err
        assert rc == 1
        assert "anchor grid" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("heights", ["1e200"])
    def test_anchor_grid_a_box_refuses_exits_1(self, tmp_path, capsys, heights):
        ds_path = tmp_path / "gt.jsonl"
        write_dataset(gt_table((FrameAnnotations(0, (gt(0, 0),)),)), ds_path)
        rc = main([
            "assign", str(ds_path), "--grid-heights", heights, "--out", str(tmp_path / "l.jsonl"),
        ])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("entry, field", [
        ('{"v": [0, 0, 1, 1]}', "anchors[1]"),
        ('{"v": [0, 0, 1, 1], "t": [0, 0, 1]}', "anchors[1].t"),
        ('{"v": [0, 0, -1, 1], "t": [0, 0, 1, 1]}', "anchors[1].v"),
        ('{"v": [0, 0, "a", 1], "t": [0, 0, 1, 1]}', "anchors[1].v"),
        ('{"v": [0, 0, 1, 1], "t": [0, 0, 1, 1' + "0" * 400 + ']}', "anchors[1].t"),
        ('{"v": "1234", "t": "5678"}', "anchors[1].v"),
        ('{"v": [true, 0, 1, 1], "t": [0, 0, 1, 1]}', "anchors[1].v"),
        ('{"v": [0, 0, 1, 1], "t": [0, 0, 1, 1], "score": 1}', "anchors[1]"),
        # closes the list, so the unknown field is the document's own
        ('{"v": [0, 0, 1, 1], "t": [0, 0, 1, 1]}], "anchor": [', "top level"),
    ], ids=["missing-t", "three-fields", "negative-width", "string-field", "int-too-large-for-float",
            "string-box", "bool-field", "unknown-field", "unknown-top-level-field"])
    def test_malformed_anchor_file_exits_2_naming_entry(self, tmp_path, capsys, entry, field):
        ds_path = tmp_path / "gt.jsonl"
        write_dataset(gt_table((FrameAnnotations(0, (gt(0, 0),)),)), ds_path)
        anchors_path = tmp_path / "anchors.json"
        anchors_path.write_text('{"anchors": [{"v": [0, 0, 1, 1], "t": [0, 0, 1, 1]}, %s]}' % entry,
                                encoding="utf-8")
        rc = main([
            "assign", str(ds_path), "--anchors", str(anchors_path),
            "--out", str(tmp_path / "l.jsonl"),
        ])
        err = capsys.readouterr().err
        assert rc == 2
        assert f"{anchors_path}:1: {field}:" in err
        assert err.count(f"{field}:") == 1  # the field is named once
        assert "Traceback" not in err


class TestGenerateCommand:
    def test_seeded_runs_identical(self, tmp_path):
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        for p in (p1, p2):
            rc = main([
                "generate", "--frames", "12", "--seed", "7",
                "--misalign", "-4", "4", "--out", str(p),
            ])
            assert rc == 0
        assert p1.read_bytes() == p2.read_bytes()

    def test_different_seed_differs(self, tmp_path):
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        main(["generate", "--frames", "12", "--seed", "7", "--out", str(p1)])
        main(["generate", "--frames", "12", "--seed", "8", "--out", str(p2)])
        assert p1.read_bytes() != p2.read_bytes()

    def test_output_parses_as_dataset(self, tmp_path):
        p = tmp_path / "ds.jsonl"
        main(["generate", "--frames", "6", "--seed", "1", "--name", "demo", "--out", str(p)])
        ds = read_dataset(p)
        assert ds.meta.name == "demo"
        assert len(ds.frame_ids) == 6


class TestNonFiniteArguments:
    @pytest.mark.parametrize("args", [
        ["--image-size", "640", "nan"], ["--image-size", "inf", "512"], ["--aspect", "nan"],
        ["--margin", "nan"], ["--width", "nan"], ["--width", "inf"], ["--peds-mean", "nan"],
        ["--misalign", "nan", "0"], ["--misalign", "0", "inf"], ["--height-range", "60", "nan"],
    ])
    def test_generate_exits_2(self, tmp_path, capsys, args):
        with pytest.raises(SystemExit) as exc:
            main(["generate", "--frames", "3", *args, "--out", str(tmp_path / "g")])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"error: argument {args[0]}: " in err and "Traceback" not in err
        assert not (tmp_path / "g").exists()

    @pytest.mark.parametrize("args", [
        ["--center-sigma", "nan"], ["--score-sigma", "nan"], ["--size-sigma", "inf"],
    ])
    def test_shift_sweep_exits_2(self, capsys, args):
        with pytest.raises(SystemExit) as exc:
            main(["shift-sweep", str(SAMPLE), "--shift", "0", *args])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"error: argument {args[0]}: " in err and "Traceback" not in err


class TestTooManyDraws:
    # both are refused before a frame or box is drawn; drawing them would take hours
    def test_generate_exits_1(self, tmp_path):
        rc, err = _run_main(["generate", "--frames", "1", "--peds-mean", "1e12",
                             "--out", str(tmp_path / "g")])
        assert rc == 1
        assert err.startswith("error: ") and "limit" in err and "Traceback" not in err
        assert not (tmp_path / "g").exists()

    def test_shift_sweep_exits_1(self, tmp_path):
        rc, err = _run_main(["shift-sweep", str(SAMPLE), "--fp-per-frame", "1e12",
                             "--out", str(tmp_path / "sweep")])
        assert rc == 1
        assert err.startswith("error: ") and "limit" in err and "Traceback" not in err


class TestBadOptionValues:
    @pytest.mark.parametrize("command, option, value", [
        ("losses", "--lambda", "-1"), ("losses", "--lambda", "nan"),
        ("shift-sweep", "--miss-prob", "2"), ("shift-sweep", "--fp-per-frame", "-1"),
        ("shift-sweep", "--fp-per-frame", "nan"), ("shift-sweep", "--fp-per-frame", "inf"),
        ("nms", "--iou-thresh", "2"), ("nms", "--max-keep", "-1"),
        ("evaluate", "--iou-thresh", "2"), ("evaluate", "--iou-thresh", "0"),
        ("shift-sweep", "--iou-thresh", "0"), ("shift-sweep", "--center-sigma", "-1"),
        ("shift-sweep", "--size-sigma", "-1"), ("shift-sweep", "--score-sigma", "-1"),
        ("generate", "--frames", "-1"),
        ("assign", "--sample-batch", "0"), ("assign", "--pos-fraction", "1.5"),
        ("assign", "--pos-fraction", "0"),
        ("evaluate", "--min-height", "nan"), ("evaluate", "--min-height", "-1"),
        ("evaluate", "--min-height", "inf"),
        ("generate", "--seed", "-1"), ("shift-sweep", "--seed", "-1"), ("assign", "--seed", "-1"),
        ("shift-sweep", "--shift", "nan"), ("shift-sweep", "--shift", "inf"),
        ("assign", "--grid-stride", "0"), ("assign", "--grid-stride", "nan"),
        ("assign", "--grid-heights", "nan"), ("assign", "--grid-heights", "-50"),
        ("assign", "--grid-aspect", "inf"), ("assign", "--rpn-pos", "nan"),
        ("assign", "--rpn-neg", "-0.1"), ("assign", "--det-pos", "1.5"),
        ("assign", "--det-neg-lo", "nan"), ("assign", "--det-neg-hi", "2"),
        ("assign", "--sample-batch", "1" + "0" * 400),  # past the largest float
        ("generate", "--peds-mean", "nan"), ("generate", "--peds-mean", "-1"),
        ("generate", "--margin", "-1"), ("generate", "--margin", "inf"),
        ("generate", "--aspect", "0"), ("generate", "--width", "-1"),
    ])
    def test_exits_2_naming_the_option(self, tmp_path, capsys, command, option, value):
        """The argument parser refuses the value, before any file is opened."""
        # without an rpn section and detector samples, --lambda would reach no library check
        samples = {"rpn": {"samples": []}} if value == "nan" else {"detector": {"samples": []}}
        (tmp_path / "samples.json").write_text(json.dumps(samples), encoding="utf-8")
        write_detections(detection_table(four_frame_fixture()[1]),
                         tmp_path / "dets.jsonl")
        out = str(tmp_path / "out.jsonl")
        argv = {
            "losses": ["losses", str(tmp_path / "samples.json")],
            "shift-sweep": ["shift-sweep", str(SAMPLE), "--shift", "0"],
            "nms": ["nms", str(tmp_path / "dets.jsonl"), "--out", out],
            # inputs that do not exist: an error about them would mean they were opened first
            "evaluate": ["evaluate", str(tmp_path / "no_gt.jsonl"),
                         str(tmp_path / "no_dets.jsonl")],
            "generate": ["generate", "--out", out],
            "assign": ["assign", str(SAMPLE), "--sample-batch", "4", "--out", out],
        }[command]
        with pytest.raises(SystemExit) as exc:
            main([*argv, option, value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"error: argument {option}: {value!r}: must be " in err
        assert "Traceback" not in err
        assert not (tmp_path / "out.jsonl").exists()

    @pytest.mark.parametrize("option, values", [
        ("--image-size", ["1e300", "512"]), ("--image-size", ["640", "0"]),
        ("--misalign", ["0", "1e101"]), ("--height-range", ["0", "60"]),
    ])
    def test_generate_pairs_exit_2_naming_the_option(self, tmp_path, capsys, option, values):
        with pytest.raises(SystemExit) as exc:
            main(["generate", "--frames", "3", option, *values, "--out", str(tmp_path / "g")])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"error: argument {option}: " in err and "must be " in err
        assert not (tmp_path / "g").exists()

    @pytest.mark.parametrize("args, message", [
        (["--height-range", "120", "60"], "height_range must satisfy 0 < low < high"),
        (["--margin", "1e308"], "x_margin leaves no room"),
    ])
    def test_generate_cross_value_rules_exit_1(self, tmp_path, args, message):
        rc, err = _run_main(["generate", "--frames", "3", *args, "--out", str(tmp_path / "g")])
        assert rc == 1
        assert err.startswith(f"error: {message}") and err.count("\n") == 1
        assert not (tmp_path / "g").exists()

    @pytest.mark.parametrize("argv, options", [
        (["generate", "--frames", "3", "--height-range", "60", "600"],
         ("--height-range", "--image-size")),
        (["generate", "--frames", "3", "--height-range", "60", "300", "--image-size", "640", "300"],
         ("--height-range", "--image-size")),
        (["assign", str(SAMPLE), "--rpn-neg", "0.7", "--rpn-pos", "0.6"], ("--rpn-neg", "--rpn-pos")),
        (["assign", str(SAMPLE), "--det-neg-lo", "0.4", "--det-neg-hi", "0.4"],
         ("--det-neg-hi", "--det-neg-lo")),
        (["assign", str(SAMPLE), "--det-neg-hi", "0.6", "--det-pos", "0.5"],
         ("--det-neg-hi", "--det-pos")),
    ])
    def test_cross_option_rules_exit_2_naming_both_options(self, tmp_path, capsys, argv, options):
        """Checked by the parser before any file is read or written."""
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--out", str(tmp_path / "out")])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"error: argument {options[0]}: " in err and options[1] in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv", [
        ["generate", "--frames", "3", "--height-range", "60", "511.9"],
        ["assign", str(SAMPLE), "--rpn-neg", "0.6", "--rpn-pos", "0.6"],
        ["assign", str(SAMPLE), "--det-neg-lo", "0.0", "--det-neg-hi", "0.5", "--det-pos", "0.5"],
    ])
    def test_cross_option_rules_take_their_edges(self, tmp_path, argv):
        assert _run_main([*argv, "--out", str(tmp_path / "out")]) == (0, "")


class TestAnchorGridOverflow:
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("args, message", [
        (["--grid-stride", "1e-300"], "anchor grid of inf anchors exceeds the limit"),
        (["--grid-aspect", "1e308"], "anchor box fields must be numbers within ±1e100"),
    ])
    def test_exits_1_with_one_line_and_no_warning(self, tmp_path, args, message):
        rc, err = _run_main(["assign", str(SAMPLE), *args, "--out", str(tmp_path / "a.jsonl")])
        assert rc == 1
        assert err.startswith(f"error: {message}") and err.count("\n") == 1


class TestRepeatedListValues:
    @pytest.mark.parametrize("command, option, values", [
        ("evaluate", "--variants", ["thermal", "thermal"]),
        ("evaluate", "--iou-thresh", ["0.5", "0.7", "0.5"]),
        ("shift-sweep", "--iou-thresh", ["0.5", "0.5"]),
        ("shift-sweep", "--shift", ["5", "5"]),
        ("shift-sweep", "--shift", ["0", "-0"]),
    ])
    def test_exits_2_naming_the_option_before_reading(self, tmp_path, capsys, command, option,
                                                      values):
        # inputs that do not exist: an error about them would mean they were opened first
        argv = {"evaluate": ["evaluate", str(tmp_path / "no_gt.jsonl"), str(tmp_path / "no_dets.jsonl")],
                "shift-sweep": ["shift-sweep", str(tmp_path / "no_gt.jsonl")]}[command]
        with pytest.raises(SystemExit) as exc:
            main([*argv, option, *values])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"error: argument {option}: " in err and "is given more than once" in err
        assert "Traceback" not in err


class TestShiftSweepCommand:
    @pytest.mark.parametrize("pattern", ["d_{foo}.jsonl", "d_{0}.jsonl", "d_{dx[0]}.jsonl",
                                         "d_{}.jsonl", "d_{dx.real}.jsonl", "d_{.jsonl",
                                         "d_{dx!z}.jsonl", "d_{dx:{y}}.jsonl",
                                         "d_{dx:{}}.jsonl"])
    def test_bad_dets_pattern_exits_2(self, capsys, pattern):
        with pytest.raises(SystemExit) as exc:
            main(["shift-sweep", str(SAMPLE), "--shift", "0", "--dets-pattern", pattern])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "error: argument --dets-pattern: " in err
        assert "Traceback" not in err

    def test_pattern_unfit_for_a_shift_exits_2_before_reading(self, tmp_path, capsys):
        pattern = str(tmp_path / "d_{dx:d}.jsonl")
        with pytest.raises(SystemExit) as exc:
            main(["shift-sweep", str(SAMPLE), "--shift", "5", "2.5", "--dets-pattern", pattern])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"error: argument --dets-pattern: {pattern!r} with --shift 2.5: " in err
        assert "Traceback" not in err

    def test_placeholder_names_message(self, capsys):
        with pytest.raises(SystemExit):
            main(["shift-sweep", str(SAMPLE), "--dets-pattern", "d_{foo}.jsonl"])
        assert ("error: argument --dets-pattern: 'd_{foo}.jsonl': the only placeholder "
                "allowed is {dx}") in capsys.readouterr().err

    def test_float_only_format_spec_takes_a_fractional_shift(self, tmp_path, capsys):
        anns, dets = four_frame_fixture()
        write_dataset(gt_table(anns), tmp_path / "gt.jsonl")
        write_detections(detection_table(dets), tmp_path / "d_2.5.jsonl")
        # no integral shift: the pattern is formatted with 2.5 only, never with an int
        rc = main(["shift-sweep", str(tmp_path / "gt.jsonl"), "--shift", "2.5",
                   "--dets-pattern", str(tmp_path / "d_{dx:.2}.jsonl"), "--format", "csv"])
        assert rc == 0
        assert capsys.readouterr().out.startswith("shift_dx,iou_thresh,lamr\n2.5,")

    def test_integral_shift_takes_an_int_format_spec(self, tmp_path, capsys):
        anns, dets = four_frame_fixture()
        write_dataset(gt_table(anns), tmp_path / "gt.jsonl")
        write_detections(detection_table(dets), tmp_path / "d_5.jsonl")
        rc = main(["shift-sweep", str(tmp_path / "gt.jsonl"), "--shift", "5",
                   "--dets-pattern", str(tmp_path / "d_{dx:d}.jsonl"), "--format", "csv"])
        assert rc == 0
        assert capsys.readouterr().out.startswith("shift_dx,iou_thresh,lamr\n5,")

    def test_paired_mock_constant_zero(self, tmp_path, capsys):
        ds_path = tmp_path / "gt.jsonl"
        main([
            "generate", "--frames", "20", "--seed", "3", "--width", "30",
            "--out", str(ds_path),
        ])
        rc = main([
            "shift-sweep", str(ds_path), "--shift", "0", "5", "10", "15", "20",
            "--mock", "paired", "--seed", "5",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        rows = out.strip().splitlines()[1:]
        assert len(rows) == 5
        for row in rows:
            cells = row.split()
            assert cells[1] == "0.0000"
            assert cells[2] == "0.0000"

    def test_single_box_mock_saturates(self, tmp_path, capsys):
        ds_path = tmp_path / "gt.jsonl"
        main([
            "generate", "--frames", "20", "--seed", "3", "--width", "30",
            "--out", str(ds_path),
        ])
        rc = main([
            "shift-sweep", str(ds_path), "--shift", "20", "--mock", "single_box",
            "--iou-thresh", "0.7", "--format", "csv",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "shift_dx,iou_thresh,lamr"
        assert out.splitlines()[1] == "20,0.7,1"

    def test_writes_output_files(self, tmp_path):
        ds_path = tmp_path / "gt.jsonl"
        main(["generate", "--frames", "8", "--seed", "3", "--out", str(ds_path)])
        out_dir = tmp_path / "sweep"
        rc = main([
            "shift-sweep", str(ds_path), "--shift", "0", "10",
            "--out", str(out_dir),
        ])
        assert rc == 0
        assert (out_dir / "shift_sweep.txt").exists()
        csv_lines = (out_dir / "shift_sweep.csv").read_text(encoding="utf-8").splitlines()
        assert csv_lines[0] == "shift_dx,iou_thresh,lamr"
        assert len(csv_lines) == 1 + 2 * 2

    def test_mock_sweep_builds_no_detection(self, tmp_path, capsys, monkeypatch):
        ds_path = tmp_path / "gt.jsonl"
        main(["generate", "--frames", "20", "--seed", "3", "--out", str(ds_path)])
        built = []
        check = pairnms.Detection.__post_init__

        def counted(self):
            built.append(self)
            check(self)

        monkeypatch.setattr(pairnms.Detection, "__post_init__", counted)
        rc = main(["shift-sweep", str(ds_path), "--shift", "0", "10", "--mock", "paired",
                   "--center-sigma", "2", "--fp-per-frame", "1", "--seed", "5"])
        assert rc == 0
        assert capsys.readouterr().out.startswith("shift_dx")
        assert built == []

    @pytest.mark.parametrize("mode,calls", [("single_box", 1), ("paired", 3)])
    def test_mock_is_built_once_unless_it_reads_the_shift(self, tmp_path, monkeypatch, mode,
                                                           calls):
        ds_path = tmp_path / "gt.jsonl"
        main(["generate", "--frames", "10", "--seed", "3", "--out", str(ds_path)])
        built = []

        def counted(frames, spec):
            built.append(spec)
            return mock_detect(frames, spec)

        monkeypatch.setattr(cli, "mock_detect", counted)
        rc, _ = _run_main(["shift-sweep", str(ds_path), "--shift", "0", "10", "20",
                           "--mock", mode, "--seed", "5"])
        assert rc == 0
        assert len(built) == calls

    @pytest.mark.parametrize("mode", ["single_box", "paired"])
    def test_outputs_equal_a_table_per_shift(self, tmp_path, capsys, mode):
        ds_path = tmp_path / "gt.jsonl"
        main(["generate", "--frames", "30", "--seed", "3", "--out", str(ds_path)])
        shifts, thresholds = [0.0, -7.5, 20.0, 630.0], (0.5, 0.7)
        options = ["--center-sigma", "2", "--size-sigma", "0.1", "--miss-prob", "0.1",
                   "--fp-per-frame", "1.5", "--score-sigma", "0.05", "--seed", "11"]
        rc = main(["shift-sweep", str(ds_path), "--shift", *map(str, shifts), "--mock", mode,
                   *options, "--format", "csv", "--out", str(tmp_path / "sweep")])
        assert rc == 0
        stdout = capsys.readouterr().out
        # the reference: a fresh detection table at every shift
        ds = read_dataset(ds_path)
        spec = MockDetectorSpec(mode=mode, center_noise_sigma=2.0, size_noise_sigma=0.1,
                                miss_prob=0.1, fp_per_frame=1.5, score_noise_sigma=0.05,
                                image_width=ds.meta.image_width,
                                image_height=ds.meta.image_height, seed=11)
        config = EvalConfig(iou_thresholds=thresholds, variants=("multimodal",))
        rows = []
        for dx in shifts:
            shifted = apply_shift(ds, ShiftSpec(dx, image_width=ds.meta.image_width))
            report = evaluate(shifted, mock_detect(shifted, spec), config)
            rows.append((dx, {t: report.lamr("multimodal", t) for t in thresholds}))
        csv_text = cli.format_sweep_csv(rows, thresholds)
        assert stdout == csv_text
        assert (tmp_path / "sweep" / "shift_sweep.csv").read_bytes() == csv_text.encode()
        assert ((tmp_path / "sweep" / "shift_sweep.txt").read_bytes()
                == cli.format_sweep_table(rows, thresholds).encode())

    @pytest.mark.parametrize("mode", ["single_box", "paired"])
    def test_out_of_range_first_shift_exits_1_before_any_mock(self, tmp_path, monkeypatch, mode):
        ds_path = tmp_path / "gt.jsonl"
        main(["generate", "--frames", "5", "--seed", "3", "--out", str(ds_path)])
        built = []
        monkeypatch.setattr(cli, "mock_detect", lambda frames, spec: built.append(spec))
        rc, err = _run_main(["shift-sweep", str(ds_path), "--shift", "640", "0", "--mock", mode])
        assert rc == 1
        assert err == "error: |dx| must be smaller than the image width\n"
        assert built == []

    @pytest.mark.parametrize("mode", ["single_box", "paired"])
    def test_overflowing_size_factor_exits_1(self, tmp_path, mode):
        ds_path = tmp_path / "gt.jsonl"
        main(["generate", "--frames", "20", "--seed", "3", "--out", str(ds_path)])
        # seed 0 draws a size factor past the largest float: an infinite extent
        rc, err = _run_main(["shift-sweep", str(ds_path), "--shift", "0", "--mock", mode,
                             "--size-sigma", "1000", "--seed", "0"])
        assert rc == 1
        assert err.startswith("error: box ") and err.count("\n") == 1, err
        assert "Traceback" not in err

    @pytest.mark.usefixtures("forced_split")
    def test_dets_pattern_loads_files(self, tmp_path, capsys):
        ds_path = tmp_path / "gt.jsonl"
        main(["generate", "--frames", "5", "--seed", "3", "--out", str(ds_path)])
        for dx in (0, 10):
            shifted = apply_shift(read_dataset(ds_path), ShiftSpec(float(dx)))
            dets = [
                FrameDetections(f.frame_id, tuple(Detection(o.pair, 1.0) for o in f.objects))
                for f in list(shifted)
            ]
            write_detections(detection_table(dets), tmp_path / f"dets_{dx}.jsonl")
        rc = main([
            "shift-sweep", str(ds_path), "--shift", "0", "10",
            "--dets-pattern", str(tmp_path / "dets_{dx}.jsonl"), "--format", "csv",
        ])
        assert rc == 0
        for line in capsys.readouterr().out.splitlines()[1:]:
            assert line.endswith(",0")


class TestLossesCommand:
    def _write_samples(self, tmp_path):
        payload = {
            "rpn": {
                "cfg": {"lambda": 1.0, "n_cls": 2, "n_reg": 2},
                "samples": [
                    {
                        "logit": 0.0, "label": 1,
                        "pred_v": [0.5, 0, 0, 0], "pred_t": [0, 0, 0, 0],
                        "target_v": [0, 0, 0, 0], "target_t": [0, 0, 0, 0],
                    },
                    {"logit": -1.0, "label": 0},
                ],
            },
            "detector": {
                "lambda": 1.0,
                "samples": [
                    {
                        "scores": [0.0, 0.0], "true_class": 1,
                        "pred_v": [0.5, 0, 0, 0], "pred_t": [0, 0, 0, 0],
                        "target_v": [0, 0, 0, 0], "target_t": [0, 0, 0, 0],
                    }
                ],
            },
        }
        p = tmp_path / "samples.json"
        p.write_text(json.dumps(payload), encoding="utf-8")
        return p

    def test_values_and_grad_check(self, tmp_path, capsys):
        p = self._write_samples(tmp_path)
        rc = main(["losses", str(p), "--grad-check"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "detector_loss[0] 0.818147181" in out
        assert "rpn_loss" in out
        for line in out.splitlines():
            if line.startswith("grad_check"):
                err = float(line.rsplit("max_abs_err=", 1)[1])
                assert err < 1e-6

    @pytest.mark.filterwarnings("error")  # a numpy warning would reach stderr outside pytest
    def test_grad_check_skips_a_nan_difference(self, tmp_path, capsys):
        # pred_v - target_v overflows to inf, so both sides of its tx stencil are inf
        # and their difference is NaN; the finite errors of the other coordinates remain
        sample = {"logit": 0.0, "label": 1, "pred_v": [1e308, 0, 0, 0],
                  "target_v": [-1e308, 0, 0, 0], "pred_t": [0.25, 0, 0, 0],
                  "target_t": [0, 0, 0, 0]}
        p = tmp_path / "samples.json"
        p.write_text(json.dumps({"rpn": {"cfg": {"n_cls": 1, "n_reg": 1}, "samples": [sample]}}),
                     encoding="utf-8")
        rc = main(["losses", str(p), "--grad-check"])
        out, err = capsys.readouterr()
        assert rc == 0
        assert out.splitlines()[:2] == [
            "rpn_loss inf", "grad_check smooth_l1 pairs=2 max_abs_err=7.655e-14",
        ]
        assert err == ""

    @pytest.mark.filterwarnings("error")
    def test_grad_check_of_far_apart_scores_warns_nothing(self, tmp_path, capsys):
        # exp(z - max) overflows to exp(-inf) = 0 for the -1e308 score
        sample = {"scores": [1e308, -1e308], "true_class": 1, **self._POS}
        p = tmp_path / "samples.json"
        p.write_text(json.dumps({"detector": {"samples": [sample]}}), encoding="utf-8")
        rc = main(["losses", str(p), "--grad-check"])
        out, err = capsys.readouterr()
        assert rc == 0
        assert out.splitlines() == [
            "detector_loss[0] inf", "grad_check smooth_l1 pairs=2 max_abs_err=0.000e+00",
            "grad_check cross_entropy inputs=1 max_abs_err=0.000e+00",
        ]
        assert err == ""

    def test_grad_check_calls_smooth_l1_a_constant_number_of_times(self, tmp_path, monkeypatch,
                                                                   capsys):
        from pairbox import cli, regression

        calls = []

        def counted(pred, target, _smooth_l1=regression.smooth_l1):
            calls.append(len(pred))
            return _smooth_l1(pred, target)

        # the losses look the name up in regression, the gradient check in cli
        monkeypatch.setattr(regression, "smooth_l1", counted)
        monkeypatch.setattr(cli, "smooth_l1", counted)
        counts = []
        for n in (1, 50):
            rpn = [{"logit": 0.1 * k, "label": k % 2, **self._POS} for k in range(2 * n)]
            det = [{"scores": [0.0, 1.0], "true_class": k % 2, **self._POS} for k in range(2 * n)]
            p = tmp_path / f"samples{n}.json"
            p.write_text(json.dumps({"rpn": {"samples": rpn}, "detector": {"samples": det}}),
                         encoding="utf-8")
            calls.clear()
            assert main(["losses", str(p), "--grad-check"]) == 0
            counts.append(len(calls))
            assert f"pairs={4 * n} " in capsys.readouterr().out
        # rpn_loss, detector_loss, the analytic gradient and 2 x 4 perturbed columns
        assert counts == [11, 11]

    def test_malformed_file_exits_2(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text("{oops", encoding="utf-8")
        rc = main(["losses", str(p)])
        assert rc == 2

    def test_out_file_written(self, tmp_path):
        p = self._write_samples(tmp_path)
        out = tmp_path / "losses.txt"
        rc = main(["losses", str(p), "--out", str(out)])
        assert rc == 0
        assert "rpn_loss" in out.read_text(encoding="utf-8")

    _POS = {"pred_v": [0, 0, 0, 0], "pred_t": [0, 0, 0, 0],
            "target_v": [0, 0, 0, 0], "target_t": [0, 0, 0, 0]}

    @pytest.mark.parametrize("payload, field", [
        ({"rpn": {"samples": [{"label": 0}]}}, "rpn.samples[0].logit"),
        ({"rpn": {"samples": [{"logit": "x", "label": 0}]}}, "rpn.samples[0].logit"),
        ({"rpn": {"samples": [3]}}, "rpn.samples[0]"),
        ({"rpn": {"samples": {"logit": 0.0}}}, "rpn.samples"),
        ({"rpn": [1]}, "rpn"),
        ({"rpn": {"cfg": 2}}, "rpn.cfg"),
        ({"rpn": {"cfg": {"n_cls": "two"}}}, "rpn.cfg.n_cls"),
        ({"rpn": {"cfg": {"n_reg": 2.5}}}, "rpn.cfg.n_reg"),
        ({"rpn": {"cfg": {"n_cls": 10**400}}}, "rpn.cfg.n_cls"),
        ({"rpn": {"cfg": {"lambda": [1]}}}, "rpn.cfg.lambda"),
        ({"rpn": {"samples": [{"logit": 0.0, "label": 1, **dict(_POS, pred_t=[1, 2])}]}},
         "rpn.samples[0].pred_t"),
        ({"detector": "x"}, "detector"),
        ({"detector": {"samples": [None]}}, "detector.samples[0]"),
        ({"detector": {"samples": [{"scores": None}]}}, "detector.samples[0].scores"),
        ({"detector": {"samples": [{"scores": [0, 0], "true_class": 1}]}},
         "detector.samples[0].pred_v"),
        ({"detector": {"samples": [{"scores": "12"}]}}, "detector.samples[0].scores"),
        ({"detector": {"samples": [{"scores": {"0": 1}}]}}, "detector.samples[0].scores"),
        ({"detector": {"samples": [{"scores": [1, 2], "true_class": 1,
                                    **dict(_POS, pred_v="0000")}]}},
         "detector.samples[0].pred_v"),
        ({"detector": {"samples": [{"scores": [1, 2], "true_class": 1,
                                    **dict(_POS, target_v="0000")}]}},
         "detector.samples[0].target_v"),
        ({"rpn": {"samples": [{"logit": 0.0, "label": 1, **dict(_POS, pred_t="0000")}]}},
         "rpn.samples[0].pred_t"),
        ({"rpn": {"samples": [{"logit": 0.0, "label": 1, **dict(_POS, target_t="0000")}]}},
         "rpn.samples[0].target_t"),
        ({"rpn": {"samples": [{"logit": 0.0, "label": 1,
                               **dict(_POS, pred_v={"0": 0, "1": 0, "2": 0, "3": 0})}]}},
         "rpn.samples[0].pred_v"),
        ({"rpn": {"cfg": {"n_cls": "7"}, "samples": [{"logit": 0.5, "label": 0}]}}, "rpn.cfg.n_cls"),
        ({"rpn": {"samples": [{"logit": "0.5", "label": 0}]}}, "rpn.samples[0].logit"),
        ({"rpn": {"samples": [{"logit": True, "label": 0}]}}, "rpn.samples[0].logit"),
        ({"rpn": {"samples": [{"logit": 0.5, "label": True}]}}, "rpn.samples[0].label"),
        ({"rpn": {"cfg": {"lambda": "1"}}}, "rpn.cfg.lambda"),
        ({"rpn": {"samples": [{"logit": 0.0, "label": 1, **dict(_POS, pred_v=[0, "1", 0, 0])}]}},
         "rpn.samples[0].pred_v"),
        ({"detector": {"samples": [{"scores": [True, "2"], "true_class": 0}]}},
         "detector.samples[0].scores"),
        ({"detector": {"samples": [{"scores": [0, 1], "true_class": True}]}},
         "detector.samples[0].true_class"),
        ({"detector": {"lambda": False}}, "detector.lambda"),
        ({"rpn": {"cfg": {"n_cls": 0}, "samples": [{"logit": 0.5, "label": 0}]}}, "rpn.cfg"),
        ({"rpn": {"cfg": {"lambda": -1}}}, "rpn.cfg"),
        ({"detector": {"lambda": -1}}, "detector.lambda"),
        ({"detector": {"samples": [{"scores": []}]}}, "detector.samples[0]"),
        ({"detector": {"samples": [{"scores": [0, 1], "true_class": 5, **_POS}]}},
         "detector.samples[0]"),
        ({"rpn": {}, "detectr": {}}, "top level"),
        ({"rpn": {"sample": []}}, "rpn"),
        ({"rpn": {"cfg": {"lamda": 0.5}}}, "rpn.cfg"),
        ({"rpn": {"samples": [{"logit": 0.5, "label": 0, "weight": 1}]}}, "rpn.samples[0]"),
        ({"detector": {"lamda": 0.5}}, "detector"),
        ({"detector": {"samples": [{"scores": [0, 1], "true_class": 0, "label": 0}]}},
         "detector.samples[0]"),
    ])
    def test_malformed_samples_exit_2_naming_file_and_field(self, tmp_path, capsys, payload, field):
        p = tmp_path / "samples.json"
        p.write_text(json.dumps(payload), encoding="utf-8")
        rc = main(["losses", str(p)])
        err = capsys.readouterr().err
        assert rc == 2
        assert f"{p}:1: {field}:" in err
        assert err.count(f"{field}:") == 1  # the field is named once
        assert "Traceback" not in err


def _numeric_options():
    """(command, option, nargs) of every option parsed as a float or an int,
    plainly or by a checked type (which keeps the converter's name)."""
    (commands,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return [(command, action.option_strings[0], action.nargs)
            for command, parser in commands.choices.items() for action in parser._actions
            if action.option_strings and getattr(action.type, "__name__", None) in ("float", "int")]


@pytest.fixture(scope="module")
def tiny_inputs(tmp_path_factory):
    work = tmp_path_factory.mktemp("tiny")
    anns, dets = four_frame_fixture()
    write_dataset(gt_table(anns), work / "gt.jsonl")
    write_detections(detection_table(dets), work / "dets.jsonl")
    (work / "samples.json").write_text(json.dumps(TestJsonDocumentFuzz.SAMPLES), encoding="utf-8")
    return work


class TestNumericOptionEdges:
    """Every numeric option of every command, one at a time, at the edges of
    the float and int domains, on tiny inputs: each run ends in an exit code,
    without an exception, a traceback or a warning."""

    EDGES = ("nan", "inf", "-inf", "-1", "0", "1e-300", "1e308", "1" + "0" * 400)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("value", EDGES)
    @pytest.mark.parametrize("command, option, nargs", _numeric_options())
    def test_exits_with_a_code(self, tiny_inputs, tmp_path, command, option, nargs, value):
        gt_path, dets, out = tiny_inputs / "gt.jsonl", tiny_inputs / "dets.jsonl", tmp_path / "out"
        argv = {
            "evaluate": ["evaluate", gt_path, dets],
            "shift-sweep": ["shift-sweep", gt_path],
            "generate": ["generate", "--frames", "2", "--out", out],
            "nms": ["nms", dets, "--out", out],
            "assign": ["assign", gt_path, "--sample-batch", "4", "--out", out],
            "losses": ["losses", tiny_inputs / "samples.json", "--grad-check"],
        }[command]
        given = [option, *[value] * (2 if nargs == 2 else 1)]
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            try:
                rc = main([*map(str, argv), *given])
            except SystemExit as exc:
                rc = exc.code
        assert rc in (0, 1, 2)
        assert "Traceback" not in err.getvalue()
        # every value reaches the option's type, "-1" and "-inf" too
        assert not re.search(r"expected (one|at least one|\d+) argument", err.getvalue())

    @pytest.mark.parametrize("argv, same_as", [
        (["shift-sweep", "{gt}", "--shift", "-1e1"], ["shift-sweep", "{gt}", "--shift", "-10"]),
        (["shift-sweep", "{gt}", "--shift", "-.5e1"], ["shift-sweep", "{gt}", "--shift", "-5"]),
        (["generate", "--frames", "2", "--misalign", "-1e-1", "0", "--out", "{out}"],
         ["generate", "--frames", "2", "--misalign", "-0.1", "0", "--out", "{out}"]),
    ], ids=["shift-exponent", "shift-dot-exponent", "misalign-exponent"])
    def test_negative_exponent_form_is_a_value(self, tiny_inputs, tmp_path, argv, same_as):
        outputs = []
        for k, args in enumerate((argv, same_as)):
            out = tmp_path / f"out{k}.jsonl"
            stdout = io.StringIO()
            with redirect_stdout(stdout):
                assert main([a.format(gt=tiny_inputs / "gt.jsonl", out=out) for a in args]) == 0
            outputs.append((stdout.getvalue(), out.read_bytes() if out.exists() else None))
        assert outputs[0] == outputs[1]
