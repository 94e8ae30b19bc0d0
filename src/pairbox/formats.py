"""JSON-Lines dataset and detection files.

One frame per line. Annotation files optionally start with a metadata line:

    {"meta":{"name":"...","width":640.0,"height":512.0}}
    {"frame":0,"objects":[{"v":[x,y,w,h],"t":[x,y,w,h],"occ":"none","ignore":false}]}

Detection files hold scored pairs, with a single-box form accepted for
detectors that emit one box per object (it is duplicated into both
modalities on read):

    {"frame":0,"dets":[{"v":[...],"t":[...],"score":0.9}]}
    {"frame":1,"dets":[{"box":[...],"score":0.8}]}

Writers emit a canonical form (metadata line first, full records, compact
separators, floats in shortest round-trip notation, LF endings), so
write(read(f)) is byte-identical for files produced by these writers.
Parsers reject records that violate domain invariants and report the file,
line number, and offending field; a byte that is not UTF-8 is reported at
its line too. Detection files are read into a
:class:`~pairbox.evaluation.DetectionTable` of columns in one pass, and
written from its columns.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .evaluation import OCCLUSION_LEVELS, DetectionTable, FrameAnnotations, FrameId, GtObject
from .geometry import Box, PairedBox

__all__ = [
    "ParseError",
    "DatasetMeta",
    "Dataset",
    "read_dataset",
    "write_dataset",
    "read_detections",
    "write_detections",
    "read_json",
]


class ParseError(ValueError):
    """A malformed record, reported with file path and line number."""

    def __init__(self, path, line_no: int, reason: str):
        super().__init__(f"{path}:{line_no}: {reason}")
        self.path = path
        self.line_no = line_no
        self.reason = reason


@dataclass(frozen=True)
class DatasetMeta:
    name: str = ""
    image_width: float = 640.0
    image_height: float = 512.0

    def __post_init__(self):
        if self.image_width <= 0 or self.image_height <= 0:
            raise ValueError("image dimensions must be positive")


@dataclass(frozen=True)
class Dataset:
    frames: tuple[FrameAnnotations, ...]
    meta: DatasetMeta = DatasetMeta()

    def __post_init__(self):
        object.__setattr__(self, "frames", tuple(self.frames))
        ids = [f.frame_id for f in self.frames]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate frame ids in dataset")


def _is_number(v) -> bool:
    # compared exactly, so an integer too large for a float is not finite either
    return isinstance(v, (int, float)) and not isinstance(v, bool) and abs(v) <= sys.float_info.max


def _parse_frame_id(record: dict, path, line_no: int) -> FrameId:
    if "frame" not in record:
        raise ParseError(path, line_no, "missing 'frame' field")
    fid = record["frame"]
    if isinstance(fid, bool) or not isinstance(fid, (str, int)):
        raise ParseError(path, line_no, f"frame id must be a string or integer, got {fid!r}")
    return fid


def _parse_box(value, path, line_no: int, field: str) -> Box:
    if (
        not isinstance(value, list)
        or len(value) != 4
        or not all(_is_number(v) for v in value)
    ):
        raise ParseError(path, line_no, f"{field}: expected [x, y, w, h] with finite numbers")
    try:
        return Box(*(float(v) for v in value))
    except ValueError as exc:
        raise ParseError(path, line_no, f"{field}: {exc}") from None


def _check_keys(record: dict, allowed: set, path, line_no: int, context: str):
    unknown = sorted(set(record) - allowed)
    if unknown:
        raise ParseError(path, line_no, f"{context}: unknown field(s) {', '.join(unknown)}")


def _check_utf8(text: str, path, line_no: int) -> None:
    """Refuse ``text`` read with ``errors="surrogateescape"`` if it holds a
    byte that is not UTF-8; ``line_no`` is the line ``text`` starts on."""
    if text.isascii():
        return
    try:
        text.encode("utf-8")
    except UnicodeEncodeError as exc:  # only escaped bytes fail to encode
        line_no += text.count("\n", 0, exc.start)
        byte = ord(text[exc.start]) - 0xDC00
        raise ParseError(path, line_no, f"invalid UTF-8 (byte 0x{byte:02x})") from None


def _lines(path):
    """The numbered lines of a UTF-8 text file; a line that is not UTF-8 is
    a ParseError at that line."""
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for line_no, line in enumerate(fh, start=1):
            _check_utf8(line, path, line_no)
            yield line_no, line


def _loads(text: str, path, line_no: Optional[int] = None):
    """``json.loads(text)``; what it refuses is a ParseError at ``line_no``.
    For a whole document (``line_no`` None) a syntax error is reported at its
    own line, and anything else (an integer with too many digits to convert,
    nesting too deep to recurse into) at line 1."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(path, line_no or exc.lineno, f"invalid JSON ({exc.msg})") from None
    except ValueError:  # the only other ValueError: an integer too long to convert
        digits = sys.get_int_max_str_digits()
        raise ParseError(path, line_no or 1,
                         f"invalid JSON (integer of more than {digits} digits)") from None
    except RecursionError as exc:
        raise ParseError(path, line_no or 1, f"invalid JSON ({exc})") from None


def read_json(path):
    """Parse a file holding one JSON document; bad UTF-8 or bad JSON syntax
    is a ParseError at the line where it occurs, any other JSON the decoder
    refuses a ParseError at line 1."""
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        text = fh.read()
    _check_utf8(text, path, 1)
    return _loads(text, path)


def _load_json_line(line: str, path, line_no: int) -> dict:
    record = _loads(line, path, line_no)
    if not isinstance(record, dict):
        raise ParseError(path, line_no, "expected a JSON object")
    return record


def _parse_meta(record: dict, path, line_no: int) -> DatasetMeta:
    meta = record["meta"]
    if not isinstance(meta, dict):
        raise ParseError(path, line_no, "meta: expected a JSON object")
    _check_keys(meta, {"name", "width", "height"}, path, line_no, "meta")
    name = meta.get("name", "")
    if not isinstance(name, str):
        raise ParseError(path, line_no, "meta.name: expected a string")
    width = meta.get("width", 640.0)
    height = meta.get("height", 512.0)
    if not _is_number(width) or not _is_number(height) or width <= 0 or height <= 0:
        raise ParseError(path, line_no, "meta.width/height: expected positive numbers")
    return DatasetMeta(name=name, image_width=float(width), image_height=float(height))


def read_dataset(path) -> Dataset:
    """Parse an annotation file; raises :class:`ParseError` on bad records."""
    meta = DatasetMeta()
    frames: list[FrameAnnotations] = []
    seen: set[FrameId] = set()
    for line_no, line in _lines(path):
        if not line.strip():
            continue
        record = _load_json_line(line, path, line_no)
        if "meta" in record:
            if line_no != 1 or frames:
                raise ParseError(path, line_no, "metadata line only allowed first")
            _check_keys(record, {"meta"}, path, line_no, "metadata line")
            meta = _parse_meta(record, path, line_no)
            continue
        _check_keys(record, {"frame", "objects"}, path, line_no, "frame record")
        fid = _parse_frame_id(record, path, line_no)
        if fid in seen:
            raise ParseError(path, line_no, f"duplicate frame id {fid!r}")
        seen.add(fid)
        raw_objects = record.get("objects")
        if not isinstance(raw_objects, list):
            raise ParseError(path, line_no, "missing or invalid 'objects' list")
        objects = []
        for k, raw in enumerate(raw_objects):
            if not isinstance(raw, dict):
                raise ParseError(path, line_no, f"objects[{k}]: expected a JSON object")
            _check_keys(raw, {"v", "t", "occ", "ignore"}, path, line_no, f"objects[{k}]")
            if "v" not in raw or "t" not in raw:
                raise ParseError(path, line_no, f"objects[{k}]: needs both 'v' and 't' boxes")
            box_v = _parse_box(raw["v"], path, line_no, f"objects[{k}].v")
            box_t = _parse_box(raw["t"], path, line_no, f"objects[{k}].t")
            occ = raw.get("occ", "none")
            if occ not in OCCLUSION_LEVELS:
                raise ParseError(
                    path, line_no,
                    f"objects[{k}].occ: expected one of {OCCLUSION_LEVELS}, got {occ!r}",
                )
            ignore = raw.get("ignore", False)
            if not isinstance(ignore, bool):
                raise ParseError(path, line_no, f"objects[{k}].ignore: expected a boolean")
            objects.append(GtObject(PairedBox(box_v, box_t), occlusion=occ, ignore=ignore))
        frames.append(FrameAnnotations(fid, tuple(objects)))
    return Dataset(frames=tuple(frames), meta=meta)


def _box_json(b: Box) -> list[float]:
    return [float(b.x), float(b.y), float(b.w), float(b.h)]


def _dump(record: dict) -> str:
    return json.dumps(record, separators=(",", ":"), ensure_ascii=True)


def write_dataset(dataset: Dataset, path) -> None:
    """Write the canonical annotation form (metadata line, then frames)."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        meta = {
            "meta": {
                "name": dataset.meta.name,
                "width": float(dataset.meta.image_width),
                "height": float(dataset.meta.image_height),
            }
        }
        fh.write(_dump(meta) + "\n")
        for frame in dataset.frames:
            record = {
                "frame": frame.frame_id,
                "objects": [
                    {
                        "v": _box_json(obj.pair.visible),
                        "t": _box_json(obj.pair.thermal),
                        "occ": obj.occlusion,
                        "ignore": obj.ignore,
                    }
                    for obj in frame.objects
                ],
            }
            fh.write(_dump(record) + "\n")


_RECORD_KEYS = {"frame", "dets"}
_PAIR_KEYS = {"v", "t", "score"}
_ROW = DetectionTable.ROW_LO.size  # v[0:4], t[4:8], score[8]


def read_detections(path) -> DetectionTable:
    """Parse a detection file into columns in one pass over its lines;
    single-box records are duplicated into pairs.

    A record in the canonical paired form becomes its rows in one step;
    any other record is parsed field by field, which reports the first bad
    field of the first bad record.
    """
    frame_ids: list[FrameId] = []
    blocks: list[np.ndarray] = []
    seen: set[FrameId] = set()
    for line_no, line in _lines(path):
        if not line.strip():
            continue
        record = _load_json_line(line, path, line_no)
        rows = _canonical_rows(record, seen)
        if rows is None:
            rows = _parse_detection_record(record, path, line_no, seen)
        seen.add(record["frame"])
        frame_ids.append(record["frame"])
        blocks.append(rows)
    offsets = np.cumsum([0] + [len(b) for b in blocks])
    rows = np.concatenate([np.zeros((0, _ROW)), *blocks])
    return DetectionTable(frame_ids, offsets, rows)


def _canonical_rows(record, seen) -> Optional[np.ndarray]:
    """The (n, 9) rows of a ``{"frame", "dets"}`` record of ``{"v", "t",
    "score"}`` detections whose values are plain numbers within the table's
    row bounds and whose frame id is new, or None for any other record."""
    if type(record) is not dict or record.keys() != _RECORD_KEYS:
        return None
    fid, dets = record["frame"], record["dets"]
    if type(fid) not in (int, str) or fid in seen or type(dets) is not list:
        return None
    values = []
    for d in dets:
        if type(d) is not dict or d.keys() != _PAIR_KEYS:
            return None
        v, t = d["v"], d["t"]
        if type(v) is not list or type(t) is not list or len(v) != 4 or len(t) != 4:
            return None
        values += v
        values += t
        values.append(d["score"])
    # bools are not numbers here; numpy converts an int exactly as float() does
    if not set(map(type, values)) <= {float, int}:
        return None
    try:
        rows = np.array(values, dtype=np.float64).reshape(-1, _ROW)
    except OverflowError:  # an integer too large for a float
        return None
    inside = (DetectionTable.ROW_LO <= rows) & (rows <= DetectionTable.ROW_HI)  # NaN is outside
    return rows if inside.all() else None


def _parse_detection_record(record: dict, path, line_no: int, seen) -> np.ndarray:
    """The (n, 9) rows of one detection record, checked field by field."""
    _check_keys(record, _RECORD_KEYS, path, line_no, "detection record")
    fid = _parse_frame_id(record, path, line_no)
    if fid in seen:
        raise ParseError(path, line_no, f"duplicate frame id {fid!r}")
    raw_dets = record.get("dets")
    if not isinstance(raw_dets, list):
        raise ParseError(path, line_no, "missing or invalid 'dets' list")
    rows = []
    for k, raw in enumerate(raw_dets):
        if not isinstance(raw, dict):
            raise ParseError(path, line_no, f"dets[{k}]: expected a JSON object")
        _check_keys(raw, {"v", "t", "box", "score"}, path, line_no, f"dets[{k}]")
        if "score" not in raw or not _is_number(raw["score"]):
            raise ParseError(path, line_no, f"dets[{k}].score: expected a finite number")
        score = float(raw["score"])
        if not 0.0 <= score <= 1.0:
            raise ParseError(
                path, line_no, f"dets[{k}].score: must lie in [0, 1], got {score}"
            )
        if "box" in raw:
            if "v" in raw or "t" in raw:
                raise ParseError(
                    path, line_no,
                    f"dets[{k}]: 'box' cannot be combined with 'v'/'t'",
                )
            box = _parse_box(raw["box"], path, line_no, f"dets[{k}].box")
            rows.append(box.as_tuple() * 2 + (score,))
        else:
            if "v" not in raw or "t" not in raw:
                raise ParseError(
                    path, line_no,
                    f"dets[{k}]: needs 'v' and 't' boxes (or a single 'box')",
                )
            box_v = _parse_box(raw["v"], path, line_no, f"dets[{k}].v")
            box_t = _parse_box(raw["t"], path, line_no, f"dets[{k}].t")
            rows.append(box_v.as_tuple() + box_t.as_tuple() + (score,))
    return np.array(rows, dtype=np.float64).reshape(-1, _ROW)


def write_detections(table: DetectionTable, path) -> None:
    """Write the canonical paired detection form from the table's columns."""
    v, t = table.v.tolist(), table.t.tolist()
    score, offsets = table.score.tolist(), table.offsets.tolist()
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for k, fid in enumerate(table.frame_ids):
            dets = [
                {"v": v[i], "t": t[i], "score": score[i]}
                for i in range(offsets[k], offsets[k + 1])
            ]
            fh.write(_dump({"frame": fid, "dets": dets}) + "\n")
