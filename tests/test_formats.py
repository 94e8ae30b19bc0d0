import ast
import json
import pickle
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import test_cli
from pairbox import cli, formats, geometry
from pairbox.evaluation import OCCLUSION_LEVELS, DetectionTable, FrameAnnotations, FrameDetections
from pairbox.formats import (
    DatasetMeta,
    ParseError,
    _canonical_rows,
    read_anchors,
    read_dataset,
    read_detections,
    read_json,
    read_samples,
    write_dataset,
    write_detections,
)
from pairbox.geometry import Box
from pairbox.simulation import SceneSpec, generate_scene

from mutations import mutated_text
from oracles import naive_read_anchors, naive_read_dataset, naive_read_detections, naive_read_samples
from scenes import det_at, detection_table, gt, gt_table

SAMPLE = Path(__file__).parent / "data" / "sample_dataset.jsonl"


def small_dataset():
    frames = (
        FrameAnnotations("a", (gt(10.5, 20, dx_thermal=3.25), gt(200, 50, occlusion="partial"))),
        FrameAnnotations("b", ()),
        FrameAnnotations(3, (gt(0, 0, w=18, h=44),)),
    )
    return gt_table(frames, DatasetMeta(name="tiny", image_width=320, image_height=256))


class TestDatasetRoundTrip:
    def test_write_read_write_is_byte_identical(self, tmp_path):
        p1 = tmp_path / "ds1.jsonl"
        p2 = tmp_path / "ds2.jsonl"
        ds = small_dataset()
        write_dataset(ds, p1)
        back = read_dataset(p1)
        _same_gt_table(back, ds)
        write_dataset(back, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_sample_fixture_parses(self):
        ds = read_dataset(SAMPLE)
        assert len(ds.frame_ids) == 8
        assert ds.meta.name == "sample8"
        assert ds.meta.image_width == 640.0
        assert ds.rows.shape == (12, 8) and ds.offsets[-1] == 12
        assert ds.offsets[3] == ds.offsets[4]  # frame 3 holds no object
        occ = [OCCLUSION_LEVELS[k] for k in ds.occ.tolist()]
        assert occ.count("heavy") == 1
        assert occ.count("partial") == 1

    def test_sample_fixture_round_trips(self, tmp_path):
        ds = read_dataset(SAMPLE)
        out = tmp_path / "copy.jsonl"
        write_dataset(ds, out)
        assert out.read_bytes() == SAMPLE.read_bytes()

    def test_missing_meta_line_uses_defaults(self, tmp_path):
        p = tmp_path / "ds.jsonl"
        p.write_text('{"frame":1,"objects":[]}\n', encoding="utf-8")
        ds = read_dataset(p)
        assert ds.meta == DatasetMeta()
        assert ds.frame_ids == [1]


class TestDatasetErrors:
    def _write(self, tmp_path, text):
        p = tmp_path / "bad.jsonl"
        p.write_text(text, encoding="utf-8")
        return p

    def test_negative_width_names_field_and_line(self, tmp_path):
        p = self._write(
            tmp_path,
            '{"frame":1,"objects":[]}\n'
            '{"frame":2,"objects":[{"v":[0,0,-3,5],"t":[0,0,1,1]}]}\n',
        )
        with pytest.raises(ParseError) as exc:
            read_dataset(p)
        assert exc.value.line_no == 2
        assert "objects[0].v" in str(exc.value)

    def test_malformed_json_reports_line(self, tmp_path):
        p = self._write(tmp_path, '{"frame":1,"objects":[]}\n{oops\n')
        with pytest.raises(ParseError) as exc:
            read_dataset(p)
        assert exc.value.line_no == 2

    def test_duplicate_frame_id(self, tmp_path):
        p = self._write(tmp_path, '{"frame":1,"objects":[]}\n{"frame":1,"objects":[]}\n')
        with pytest.raises(ParseError, match="duplicate frame id"):
            read_dataset(p)

    def test_bad_occlusion_value(self, tmp_path):
        p = self._write(
            tmp_path,
            '{"frame":1,"objects":[{"v":[0,0,1,1],"t":[0,0,1,1],"occ":"total"}]}\n',
        )
        with pytest.raises(ParseError, match="occ"):
            read_dataset(p)

    def test_unknown_key_rejected(self, tmp_path):
        p = self._write(tmp_path, '{"frame":1,"objects":[],"extra":true}\n')
        with pytest.raises(ParseError, match="unknown field"):
            read_dataset(p)

    def test_non_finite_coordinate_rejected(self, tmp_path):
        # null, and an integer too large for a float
        for value in ("null", "1" + "0" * 400):
            p = self._write(
                tmp_path, '{"frame":1,"objects":[{"v":[0,0,1,%s],"t":[0,0,1,1]}]}\n' % value
            )
            with pytest.raises(ParseError, match=r"objects\[0\].v"):
                read_dataset(p)

    def test_meta_after_frames_rejected(self, tmp_path):
        p = self._write(tmp_path, '{"frame":1,"objects":[]}\n{"meta":{"name":"x"}}\n')
        with pytest.raises(ParseError, match="metadata"):
            read_dataset(p)

    def test_bool_frame_id_rejected(self, tmp_path):
        p = self._write(tmp_path, '{"frame":true,"objects":[]}\n')
        with pytest.raises(ParseError, match="frame id"):
            read_dataset(p)


class TestDetections:
    def test_round_trip_byte_identical(self, tmp_path):
        dets = [
            FrameDetections("a", (det_at(10.25, 20, 0.875), det_at(40, 60, 0.5))),
            FrameDetections("b", ()),
        ]
        p1 = tmp_path / "d1.jsonl"
        p2 = tmp_path / "d2.jsonl"
        write_detections(detection_table(dets), p1)
        back = read_detections(p1)
        assert list(back) == dets
        write_detections(back, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_single_box_record_duplicated(self, tmp_path):
        p = tmp_path / "d.jsonl"
        p.write_text('{"frame":"a","dets":[{"box":[5,6,7,8],"score":0.25}]}\n', encoding="utf-8")
        dets = read_detections(p)
        d = dets[0].detections[0]
        assert d.pair.visible == d.pair.thermal == Box(5, 6, 7, 8)
        assert d.score == 0.25

    def test_score_out_of_range_rejected(self, tmp_path):
        p = tmp_path / "d.jsonl"
        p.write_text('{"frame":"a","dets":[{"box":[0,0,1,1],"score":1.5}]}\n', encoding="utf-8")
        with pytest.raises(ParseError, match="score"):
            read_detections(p)

    def test_box_and_pair_conflict_rejected(self, tmp_path):
        p = tmp_path / "d.jsonl"
        p.write_text(
            '{"frame":"a","dets":[{"box":[0,0,1,1],"v":[0,0,1,1],"t":[0,0,1,1],"score":0.5}]}\n',
            encoding="utf-8",
        )
        with pytest.raises(ParseError, match="box"):
            read_detections(p)

    def test_missing_modality_rejected(self, tmp_path):
        p = tmp_path / "d.jsonl"
        p.write_text('{"frame":"a","dets":[{"v":[0,0,1,1],"score":0.5}]}\n', encoding="utf-8")
        with pytest.raises(ParseError, match="'v' and 't'"):
            read_detections(p)

    def test_frames_without_detections_legal(self, tmp_path):
        p = tmp_path / "d.jsonl"
        p.write_text('{"frame":"a","dets":[]}\n', encoding="utf-8")
        assert list(read_detections(p)) == [FrameDetections("a", ())]

    def test_repeated_frame_id_table_cannot_be_built_or_written(self, tmp_path):
        # read_detections refuses such a file, so no writer may produce one
        p = tmp_path / "dup.jsonl"
        with pytest.raises(ValueError, match="duplicate frame ids in DetectionTable"):
            write_detections(DetectionTable(["a", "a"], [0, 1, 1], np.full((1, 9), 0.5)), p)
        assert not p.exists()



class TestBlockedWriters:
    """The writers turn one block of frames at a time into Python values:
    their bytes do not depend on the block size, and the memory they hold
    does not grow with the frame count."""

    @staticmethod
    def _tables(n: int):
        """A seeded scene of ``n`` frames, some empty, and the same boxes scored."""
        gts = generate_scene(SceneSpec(num_frames=n, peds_per_frame=3, seed=1))
        scores = np.linspace(0.0, 1.0, len(gts.rows))
        return gts, DetectionTable(gts.frame_ids, gts.offsets, np.column_stack([gts.rows, scores]))

    @pytest.mark.parametrize("block", [1, 7])
    def test_bytes_do_not_depend_on_the_block_size(self, tmp_path, monkeypatch, block):
        gts, dets = self._tables(50)
        assert 0 in np.diff(gts.offsets)
        whole = [tmp_path / "gt.jsonl", tmp_path / "dets.jsonl"]
        write_dataset(gts, whole[0])
        write_detections(dets, whole[1])
        monkeypatch.setattr(formats, "_BLOCK_FRAMES", block)
        write_dataset(gts, tmp_path / "gt_blocks.jsonl")
        write_detections(dets, tmp_path / "dets_blocks.jsonl")
        assert (tmp_path / "gt_blocks.jsonl").read_bytes() == whole[0].read_bytes()
        assert (tmp_path / "dets_blocks.jsonl").read_bytes() == whole[1].read_bytes()
        assert list(read_dataset(whole[0])) == list(gts) and list(read_detections(whole[1])) == list(dets)

    @pytest.mark.parametrize("write", [write_dataset, write_detections])
    def test_peak_memory_does_not_grow_with_the_frame_count(self, tmp_path, write):
        peaks = []
        for n in (2_000, 6_000):
            table = self._tables(n)[write is write_detections]
            tracemalloc.start()
            try:
                write(table, tmp_path / "out.jsonl")
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # converting the whole 6,000-frame table at once took 3 times the 2,000-frame peak
        assert peaks[1] < 1.2 * peaks[0], peaks

class TestUndecodableBytes:
    """A byte that is not UTF-8 is a parse error at its line."""

    @pytest.mark.parametrize("read, first", [
        (read_dataset, b'{"frame":1,"objects":[]}'),
        (read_detections, b'{"frame":1,"dets":[]}'),
    ])
    def test_jsonl_readers_name_the_line(self, tmp_path, read, first):
        p = tmp_path / "bad.jsonl"
        p.write_bytes(first + b'\n{"frame":2,\xff}\n')
        with pytest.raises(ParseError) as exc:
            read(p)
        assert exc.value.line_no == 2
        assert str(exc.value) == f"{p}:2: invalid UTF-8 (byte 0xff)"

    def test_json_document_names_the_line(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_bytes(b'{"a": 1,\n "b": "caf\xc3"}\n')
        with pytest.raises(ParseError, match=r"bad\.json:2: invalid UTF-8 \(byte 0xc3\)"):
            read_json(p)

    def test_valid_multibyte_text_reads(self, tmp_path):
        p = tmp_path / "ok.jsonl"
        p.write_text('{"frame":"caf\u00e9","dets":[]}\n', encoding="utf-8")
        assert read_detections(p).frame_ids == ["caf\u00e9"]
        assert read_json(p) == {"frame": "caf\u00e9", "dets": []}


class TestDatasetValidation:
    def test_duplicate_ids_rejected(self):
        frames = (FrameAnnotations("a", ()), FrameAnnotations("a", ()))
        with pytest.raises(ValueError, match="duplicate"):
            gt_table(frames)

    def test_bad_meta_rejected(self):
        with pytest.raises(ValueError):
            DatasetMeta(image_width=0)

    def test_written_lines_are_valid_json(self, tmp_path):
        p = tmp_path / "ds.jsonl"
        write_dataset(small_dataset(), p)
        for line in p.read_text(encoding="utf-8").splitlines():
            json.loads(line)


# --- the column reader against the field-by-field parser --------------------

# values that stress the float conversion: integers, beyond 2**53, signed zero,
# the ±1e100 bound, and plain floats
coordinate = st.one_of(
    st.sampled_from([0, 7, -3, 2**53, 2**53 + 1, -(2**53) - 1, 10**30, -0.0, 1e100, -1e100]),
    st.floats(-1e100, 1e100),
)
extent = st.one_of(st.sampled_from([0, 5, 2**53 + 1, 10**30, -0.0, 1e100]), st.floats(0.0, 1e100))
score = st.one_of(st.sampled_from([0, 1, -0.0, 1.0]), st.floats(0.0, 1.0))
box = st.builds(lambda x, y, w, h: [x, y, w, h], coordinate, coordinate, extent, extent)
paired_det = st.fixed_dictionaries({"v": box, "t": box, "score": score})
single_det = st.fixed_dictionaries({"box": box, "score": score})


@st.composite
def detection_file(draw, single_box: bool, ascii: bool = True):
    """A valid detection file's text; with ``ascii`` False, ids may hold
    characters beyond ASCII, written as themselves rather than escaped."""
    letters = "ab1" if ascii else "ab1\u00e9\u20ac"
    ids = draw(st.lists(st.integers(-5, 5) | st.text(letters, max_size=2), unique=True,
                        min_size=1, max_size=5))
    det = paired_det | single_det if single_box else paired_det
    records = [{"frame": fid, "dets": draw(st.lists(det, max_size=4))} for fid in ids]
    return "".join(json.dumps(r, ensure_ascii=ascii) + "\n" for r in records)


@st.composite
def dressed(draw, text: str) -> bytes:
    """``text``'s lines with blank lines between them and each ended by LF,
    CRLF or CR, as UTF-8 with its escaped bytes put back."""
    lines = []
    for line in text.splitlines():
        for part in draw(st.lists(st.sampled_from(["", "  "]), max_size=1)) + [line]:
            lines.append(part + draw(st.sampled_from(["\n", "\r\n", "\r"])))
    return "".join(lines).encode("utf-8", "surrogateescape")


def _same_table(a, b):
    assert a.frame_ids == b.frame_ids
    assert [type(fid) for fid in a.frame_ids] == [type(fid) for fid in b.frame_ids]
    for name in ("offsets", "v", "t", "score"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and x.shape == y.shape
        assert x.tobytes() == y.tobytes(), name  # float bits, so -0.0 != 0.0


def _outcome(read, path):
    try:
        return read(path)
    except ParseError as exc:
        return f"ParseError: {exc}"


def _oracle_table(path):
    return detection_table(naive_read_detections(path))


def _decoded(line):
    """The JSON value of ``line``, or the line itself (a string, so never a
    canonical record) when it is not JSON."""
    try:
        return json.loads(line)
    except ValueError:
        return line


def _off_canonical(line, key, seen) -> bool:
    """Whether the record on ``line`` fails ``_parse_frame`` given the frame
    ids ``seen`` before it, or its ``key`` list is off the canonical form."""
    record = _decoded(line)
    if not isinstance(record, dict):
        return True
    try:
        _, items = formats._parse_frame(record, key, "f", 1, "record", seen)
    except ParseError:
        return True
    canonical = {"dets": _canonical_rows, "objects": formats._canonical_objects}[key]
    return canonical(items) is None


class TestColumnReader:
    @settings(derandomize=True, deadline=None)
    @given(text=detection_file(single_box=False) | detection_file(single_box=True))
    def test_equals_scalar_parser_bit_for_bit(self, tmp_path_factory, text):
        p = tmp_path_factory.mktemp("dets") / "d.jsonl"
        p.write_text(text, encoding="utf-8")
        _same_table(read_detections(p), _oracle_table(p))
        out = p.with_name("out.jsonl")
        write_detections(read_detections(p), out)
        ref = p.with_name("ref.jsonl")
        write_detections(_oracle_table(p), ref)
        assert out.read_bytes() == ref.read_bytes()

    def test_canonical_records_take_the_column_path(self, tmp_path, monkeypatch):
        lines = [
            '{"frame":1,"dets":[{"v":[1,2,3,4],"t":[1.5,2,3,4],"score":0.5}]}',
            '{"frame":"x","dets":[]}',
        ]
        p = tmp_path / "d.jsonl"
        p.write_text(lines[0] + "\n\n" + lines[1] + "\n", encoding="utf-8")
        rows = [_canonical_rows(json.loads(line)["dets"]) for line in lines]
        assert rows[0].tolist() == [[1.0, 2.0, 3.0, 4.0, 1.5, 2.0, 3.0, 4.0, 0.5]]
        assert rows[1].shape == (0, 9)
        expected = _oracle_table(p)

        def field_by_field(*args):
            raise AssertionError("a canonical record went to the field-by-field parser")

        monkeypatch.setattr(formats, "_parse_detection_record", field_by_field)
        table = read_detections(p)
        _same_table(table, expected)
        assert table.offsets.tolist() == [0, 1, 1]

    @pytest.mark.parametrize("line", [
        '{"frame":1}',                                                        # dropped key
        '{"frame":1,"dets":[{"v":[0,0,1,1],"t":[0,0,1,1]}]}',                 # dropped score
        '{"frame":1.5,"dets":[]}',                                            # retyped id
        '{"frame":1,"dets":[{"v":[0,0,1,1],"t":[0,0,1,1],"score":"0.5"}]}',   # retyped score
        '{"frame":1,"dets":[{"v":[0,0,1,1],"t":{},"score":0.5}]}',            # retyped box
        '{"frame":1,"dets":[{"v":[0,true,1,1],"t":[0,0,1,1],"score":0.5}]}',  # true coordinate
        '{"frame":1,"dets":[{"v":[0,NaN,1,1],"t":[0,0,1,1],"score":0.5}]}',
        '{"frame":1,"dets":[{"v":[0,0,1,1],"t":[0,Infinity,1,1],"score":0.5}]}',
        '{"frame":1,"dets":[{"v":[0,0,1,1],"t":[0,0,1,1],"score":NaN}]}',
        '{"frame":1,"dets":[{"v":[0,0,1,1%s],"t":[0,0,1,1],"score":0.5}]}' % ("0" * 400),
        '{"frame":1,"dets":[{"v":[0,0,1,1],"t":[0,0,1,1],"sco',               # truncated
        '{"frame":0,"dets":[]}',                                              # duplicate id
        '{"frame":1,"dets":[{"v":[0,0,1,1],"t":[0,0,1,1],"score":1.0000001}]}',
        '{"frame":1,"dets":[{"v":[0,0,-1,1],"t":[0,0,1,1],"score":0.5}]}',    # negative w
        '{"frame":1,"dets":[{"v":[0,0,1,1],"t":[0,0,1,1],"score":0.5,"x":1}]}',
        '{"frame":1,"dets":[{"v":[0,0,1,1],"t":[0,0,1e101,1],"score":0.5}]}',
    ])
    def test_mutations_raise_the_scalar_parsers_error(self, tmp_path, line):
        p = tmp_path / "d.jsonl"
        p.write_text('{"frame":0,"dets":[]}\n' + line + "\n", encoding="utf-8")
        assert _off_canonical(line, "dets", {0})
        expected = _outcome(_oracle_table, p)
        assert expected.startswith(f"ParseError: {p}:2: ")
        assert _outcome(read_detections, p) == expected

    @settings(derandomize=True, deadline=None, max_examples=400)
    @given(data=st.data())
    def test_mutated_files_read_as_the_scalar_parser_reads_them(self, tmp_path_factory, data):
        files = detection_file(single_box=False) | detection_file(single_box=True)
        text = data.draw(files.filter(lambda t: t.count("\n") > 1))
        p = tmp_path_factory.mktemp("dets") / "d.jsonl"
        p.write_text(data.draw(mutated_text(text)), encoding="utf-8")
        expected = _outcome(_oracle_table, p)
        got = _outcome(read_detections, p)
        if isinstance(expected, str):
            assert got == expected
            # the refused record is off the canonical form, given the ids before it
            line_no = int(expected.removeprefix(f"ParseError: {p}:").split(":")[0])
            lines = p.read_text(encoding="utf-8").splitlines()
            seen = {json.loads(line)["frame"] for line in lines[:line_no - 1]}
            assert _off_canonical(lines[line_no - 1], "dets", seen)
        else:
            _same_table(got, expected)


class TestDetectionRange:
    """``read_detections(path, start, stop)`` reads the lines in a byte
    range as the whole read reads them, so two ranges cut at a line start
    make up the whole file; a file the whole read refuses gives the serial
    outcome through the commands that read it in ranges."""

    @staticmethod
    def _line_starts(data: bytes) -> list[int]:
        return [0] + [k + 1 for k, b in enumerate(data) if b == ord("\n")]

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(data=st.data())
    def test_ranges_make_up_the_whole_read_or_give_its_outcome(self, tmp_path_factory, data):
        files = (detection_file(single_box=False, ascii=False)
                 | detection_file(single_box=True, ascii=False))
        text = data.draw(files)
        if data.draw(st.booleans()):
            text = data.draw(mutated_text(text, bad_bytes=True))
        work = tmp_path_factory.mktemp("dets")
        p = work / "d.jsonl"
        raw = data.draw(dressed(text))
        p.write_bytes(raw)
        whole = _outcome(read_detections, p)
        if isinstance(whole, str):
            self._serial_outcomes(p, work)
            return
        cut = data.draw(st.sampled_from(self._line_starts(raw)))
        parts = [read_detections(p, 0, cut), read_detections(p, cut, len(raw))]
        _same_table(read_detections(p, 0, len(raw)), whole)
        assert parts[0].frame_ids + parts[1].frame_ids == whole.frame_ids
        assert np.concatenate([parts[0].rows, parts[1].rows]).tobytes() == whole.rows.tobytes()

    @staticmethod
    def _serial_outcomes(dets, work):
        """``nms`` and ``evaluate`` of ``dets`` split into ranges give the
        exit code, stderr and files of their serial runs, and leave no child."""
        out = work / "kept.jsonl"
        nms = ["nms", dets, "--out", out]
        outcomes = []
        for split in (False, True):
            with pytest.MonkeyPatch.context() as mp:
                if split:
                    test_cli.TestRanges._split(mp)
                else:
                    mp.setattr(cli, "_line_ranges", lambda path: [])
                outcomes.append((test_cli._outcome(nms, out),
                                 test_cli._evaluation(SAMPLE, dets, work / "out")))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][0][0] == outcomes[0][1][0] == 2
        test_cli._no_child_left()

    @pytest.mark.parametrize("tail", [
        b'{"frame":1,"dets":[{"box":[0,0,1,1],"score":0.5}]}\n',              # single box
        b'{"frame":0,"dets":[]}\n',                                            # repeated id
        b'{"frame":1,"dets":[]}\r\n',
        b'\n{"frame":1,"dets":[]}\n',                                          # blank line
        b'{"frame":1,"dets":[],"x":0}\n',
        b'{"frame":true,"dets":[]}\n',
        b'{"frame":"\xff","dets":[]}\n',                                       # not UTF-8
        b'{"frame":"\\u00e9","dets":[]}\n' + b"\xc3\xa9\n",                  # nor JSON beyond it
        b'{"frame":1,"dets":[' + b"[" * 100_000 + b"]" * 100_000 + b']}\n',
        b'{"frame":1,"dets":[' + b"1" * 5000 + b']}\n',
        b'{"frame":1,"dets":[{"v":[0,0,1,1],"t":[0,0,1,1e101],"score":0.5}]}\n',
        b'[]\n',
    ])
    def test_a_range_reads_as_a_file_of_its_own_lines(self, tmp_path, tail):
        """The same table or the same error, whose line counts from the
        range start; a frame id of an earlier range is new to it."""
        def outcome(path, *span):
            try:
                return read_detections(path, *span)
            except ParseError as exc:
                return exc.line_no, exc.reason

        p, alone = tmp_path / "d.jsonl", tmp_path / "alone.jsonl"
        head = b'{"frame":0,"dets":[]}\n'
        p.write_bytes(head + tail)
        alone.write_bytes(tail)
        got, expected = outcome(p, len(head), len(head + tail)), outcome(alone)
        if isinstance(expected, tuple):
            assert got == expected
        else:
            _same_table(got, expected)
        assert read_detections(p, 0, len(head)).frame_ids == [0]

    def test_a_final_line_without_lf_and_an_empty_range_read(self, tmp_path):
        p = tmp_path / "d.jsonl"
        p.write_bytes(b'{"frame":0,"dets":[]}\n{"frame":"a","dets":[]}')
        assert read_detections(p, 0, p.stat().st_size).frame_ids == [0, "a"]
        assert len(read_detections(p, 5, 5)) == 0


def test_parse_error_survives_pickling():
    exc = ParseError("d.jsonl", 3, "bad")
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is ParseError
    assert (back.path, back.line_no, back.reason, str(back)) == ("d.jsonl", 3, "bad", str(exc))


# --- the annotation column reader against the field-by-field parser ---------

# objects with and without their optional fields, so both default on read
gt_object = st.fixed_dictionaries(
    {"v": box, "t": box},
    optional={"occ": st.sampled_from(OCCLUSION_LEVELS), "ignore": st.booleans()},
)
meta_record = st.fixed_dictionaries({}, optional={
    "name": st.text("xy", max_size=2),
    "width": st.sampled_from([640.0, 7, 2.5, 1e100]),
    "height": st.sampled_from([512.0, 3, 0.5]),
})


@st.composite
def annotation_file(draw):
    ids = draw(st.lists(st.integers(-5, 5) | st.text("ab1", max_size=2), unique=True,
                        min_size=1, max_size=5))
    meta = draw(st.none() | meta_record)
    records = [] if meta is None else [{"meta": meta}]
    records += [{"frame": fid, "objects": draw(st.lists(gt_object, max_size=4))} for fid in ids]
    return "".join(json.dumps(r) + "\n" for r in records)


def _same_gt_table(a, b):
    assert a.frame_ids == b.frame_ids and a.meta == b.meta
    assert [type(fid) for fid in a.frame_ids] == [type(fid) for fid in b.frame_ids]
    for name in ("offsets", "v", "t", "occ", "ignore"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and x.shape == y.shape
        assert x.tobytes() == y.tobytes(), name  # float bits, so -0.0 != 0.0


def _oracle_gt_table(path):
    return gt_table(*naive_read_dataset(path))


class TestAnnotationColumnReader:
    @settings(derandomize=True, deadline=None)
    @given(text=annotation_file())
    def test_equals_scalar_parser_bit_for_bit(self, tmp_path_factory, text):
        p = tmp_path_factory.mktemp("gt") / "gt.jsonl"
        p.write_text(text, encoding="utf-8")
        _same_gt_table(read_dataset(p), _oracle_gt_table(p))
        out, ref = p.with_name("out.jsonl"), p.with_name("ref.jsonl")
        write_dataset(read_dataset(p), out)
        write_dataset(_oracle_gt_table(p), ref)
        assert out.read_bytes() == ref.read_bytes()

    def test_canonical_records_take_the_column_path(self, tmp_path, monkeypatch):
        p = tmp_path / "gt.jsonl"
        p.write_text(
            '{"frame":1,"objects":[{"v":[1,-0.0,3,4],"t":[2,0,3,4e0],"occ":"heavy","ignore":true},'
            '{"v":[0,0,0,0],"t":[0,0,0,0],"occ":"none","ignore":false}]}\n\n'
            '{"frame":"x","objects":[]}\n', encoding="utf-8")
        expected = _oracle_gt_table(p)

        def field_by_field(*args):
            raise AssertionError("a canonical record went to the field-by-field parser")

        monkeypatch.setattr(formats, "_parse_objects", field_by_field)
        table = read_dataset(p)
        _same_gt_table(table, expected)
        assert table.offsets.tolist() == [0, 2, 2] and table.occ.tolist() == [2, 0]
        assert np.signbit(table.v[0, 1])

    @pytest.mark.parametrize("line", [
        '{"frame":1,"objects":[{"v":[0,0,1,1],"t":[0,0,1,1],"occ":"none","ignore":1}]}',
        '{"frame":1,"objects":[{"v":[0,0,1,1],"t":[0,0,1,1],"occ":"none","ignore":null}]}',
        '{"frame":1,"objects":[{"v":[0,0,1,1],"t":[0,0,1,1],"occ":"total","ignore":false}]}',
        '{"frame":1,"objects":[{"v":[0,0,1,1],"t":[0,0,1,1],"occ":["none"],"ignore":false}]}',
        '{"frame":1,"objects":[{"v":[0,0,1,1],"t":[0,0,1,1],"occ":true,"ignore":false}]}',
        '{"frame":1,"objects":[{"v":[0,NaN,1,1],"t":[0,0,1,1],"occ":"none","ignore":false}]}',
        '{"frame":1,"objects":[{"v":[0,0,-1,1],"t":[0,0,1,1],"occ":"none","ignore":false}]}',
        '{"frame":1,"objects":[{"v":[0,0,1,1],"t":[0,0,1e101,1],"occ":"none","ignore":false}]}',
        '{"frame":1,"objects":[{"v":[0,0,1,1],"t":[0,false,1,1],"occ":"none","ignore":false}]}',
        '{"frame":1,"objects":[{"v":[0,0,1],"t":[0,0,1,1,1],"occ":"none","ignore":false}]}',
        '{"frame":1,"objects":[{"t":[0,0,1,1],"occ":"none","ignore":false}]}',
        '{"frame":1,"objects":[{"v":[0,0,1,1],"t":[0,0,1,1],"occ":"none","ignore":false,"x":1}]}',
        '{"frame":0,"objects":[]}',                                             # duplicate id
        '{"frame":[1],"objects":[]}',
    ])
    def test_mutations_raise_the_scalar_parsers_error(self, tmp_path, line):
        p = tmp_path / "gt.jsonl"
        p.write_text('{"frame":0,"objects":[]}\n' + line + "\n", encoding="utf-8")
        assert _off_canonical(line, "objects", {0})
        expected = _outcome(_oracle_gt_table, p)
        assert expected.startswith(f"ParseError: {p}:2: ")
        assert _outcome(read_dataset, p) == expected

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(data=st.data())
    def test_mutated_files_read_as_the_scalar_parser_reads_them(self, tmp_path_factory, data):
        text = data.draw(annotation_file())
        p = tmp_path_factory.mktemp("gt") / "gt.jsonl"
        p.write_text(data.draw(mutated_text(text, bad_bytes=True)), encoding="utf-8",
                     errors="surrogateescape")
        expected = _outcome(_oracle_gt_table, p)
        got = _outcome(read_dataset, p)
        if isinstance(expected, str):
            assert got == expected
        else:
            _same_gt_table(got, expected)


# --- the anchor and loss sample documents ----------------------------------


class TestDocumentReaders:
    def test_anchor_file_builds_no_paired_box(self, tmp_path, monkeypatch):
        anchors_path = tmp_path / "anchors.json"
        anchors_path.write_text(json.dumps({"anchors": [
            {"v": [0, 0, 10, 20], "t": [3, 0, 10, 20]}, {"v": [5.5, 1, 2, 3], "t": [6, 1, 2, 3]},
        ]}), encoding="utf-8")
        built = []
        init = geometry.PairedBox.__init__

        def counted(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(geometry.PairedBox, "__init__", counted)
        visible, thermal = read_anchors(anchors_path)
        assert built == []
        np.testing.assert_array_equal(visible, [[0, 0, 10, 20], [5.5, 1, 2, 3]])
        np.testing.assert_array_equal(thermal, [[3, 0, 10, 20], [6, 1, 2, 3]])
        for boxes in (visible, thermal):
            assert boxes.dtype == np.float64 and boxes.flags.c_contiguous

    def test_empty_anchor_file_gives_empty_arrays(self, tmp_path):
        anchors_path = tmp_path / "anchors.json"
        anchors_path.write_text('{"anchors": []}', encoding="utf-8")
        assert [boxes.shape for boxes in read_anchors(anchors_path)] == [(0, 4), (0, 4)]

    @pytest.mark.parametrize("target", ["anchors", "samples"])
    def test_valid_documents_read_as_the_naive_parsers_read_them(self, tmp_path, target):
        documents = test_cli.TestJsonDocumentFuzz
        p = tmp_path / f"{target}.json"
        p.write_text(json.dumps(documents.ANCHORS if target == "anchors" else documents.SAMPLES),
                     encoding="utf-8")
        read, naive_read, parts = DOCUMENT_READERS[target]
        got = _document_outcome(read, p, parts)
        assert not isinstance(got, str) and got == _document_outcome(naive_read, p, parts)

    @settings(derandomize=True, deadline=None, max_examples=400)
    @given(data=st.data(), target=st.sampled_from(["anchors", "samples"]))
    def test_mutated_documents_read_as_the_naive_parsers_read_them(self, tmp_path_factory,
                                                                   data, target):
        """The readers against hand-written parsers with checks of their own:
        the same arrays, config and section names, or the same error."""
        documents = test_cli.TestJsonDocumentFuzz
        valid = json.dumps(documents.ANCHORS if target == "anchors" else documents.SAMPLES)
        p = tmp_path_factory.mktemp("doc") / f"{target}.json"
        p.write_text(data.draw(mutated_text(valid, bad_bytes=True)), encoding="utf-8",
                     errors="surrogateescape")
        read, naive_read, parts = DOCUMENT_READERS[target]
        assert _document_outcome(read, p, parts) == _document_outcome(naive_read, p, parts)


def _sample_parts(result):
    """A loss sample file's arrays (both sections' columns and offset rows,
    and lambda) and its other values (the LossConfig and section names)."""
    (logits, labels, rpn_rows, cfg), (scores, true_class, det_rows, lam), sections = result
    rows = [np.array(r, dtype=np.float64) for r in (rpn_rows, det_rows)]
    return [logits, labels, *rows, *scores, true_class, np.float64(lam)], (cfg, sections)


DOCUMENT_READERS = {
    "anchors": (read_anchors, naive_read_anchors, lambda boxes: (boxes, ())),
    "samples": (read_samples, naive_read_samples, _sample_parts),
}


def _document_outcome(read, path, parts):
    """The dtype, shape and bytes (so -0.0 != 0.0) of each array ``read(path)``
    gives and its other values, split by ``parts``; or the error it raises."""
    try:
        arrays, values = parts(read(path))
    except ValueError as exc:  # a ParseError, or any other value the reader refuses
        return f"{type(exc).__name__}: {exc}"
    return [(a.dtype, a.shape, a.tobytes()) for a in map(np.asarray, arrays)], values


def test_cli_leaves_parsing_to_formats():
    """The command module imports no private name of ``formats`` and raises
    no ParseError, so every input file is parsed in ``formats`` alone."""
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    private = [alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("formats")
               for alias in node.names if alias.name.startswith("_")]
    private += [node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
                and getattr(node.value, "id", None) == "formats" and node.attr.startswith("_")]
    raised = [ast.unparse(node) for node in ast.walk(tree) if isinstance(node, ast.Raise)
              and "ParseError" in {getattr(n, "id", getattr(n, "attr", None))
                                   for n in ast.walk(node)}]
    assert private == [] and raised == []
