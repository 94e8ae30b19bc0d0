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
line number, and offending field. Detection files are read into a
:class:`~pairbox.evaluation.DetectionTable` of columns.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .evaluation import (
    OCCLUSION_LEVELS,
    DetectionTable,
    FrameAnnotations,
    FrameDetections,
    GtObject,
)
from .geometry import Box, PairedBox
from .pairnms import Detection

__all__ = [
    "ParseError",
    "DatasetMeta",
    "Dataset",
    "read_dataset",
    "write_dataset",
    "read_detections",
    "write_detections",
]

FrameId = Union[str, int]


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


def _load_json_line(line: str, path, line_no: int) -> dict:
    try:
        record = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ParseError(path, line_no, f"invalid JSON ({exc.msg})") from None
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
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
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
_ROW = 9  # v[0:4], t[4:8], score[8]
_CHUNK_VALUES = _ROW * 8192
_EXACT_INT = 2**53  # every integer within ±2**53 converts to a float exactly


def read_detections(path) -> DetectionTable:
    """Parse a detection file into columns; single-box records are
    duplicated into pairs.

    A file in the canonical paired form is read straight into columns and
    checked with vectorised rules equal to the per-field ones. Any other
    file, or one a rule refuses, is parsed again field by field, which
    reports the first bad record.
    """
    try:
        table = _read_paired_columns(path)
    except UnicodeDecodeError:
        table = None
    if table is None:
        table = DetectionTable.from_frames(_read_detections_scalar(path))
    return table


def _read_paired_columns(path) -> Optional[DetectionTable]:
    """The table of a file whose records are all ``{"frame", "dets"}`` with
    ``{"v", "t", "score"}`` detections of plain numbers, or None when a
    record is off that form or a value breaks a rule."""
    frame_ids, counts, chunks, values = [], [], [], []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            try:
                record = json.loads(line)
            except ValueError:
                if line.strip():
                    return None
                continue
            if type(record) is not dict or record.keys() != _RECORD_KEYS:
                return None
            fid, dets = record["frame"], record["dets"]
            if type(fid) not in (int, str) or type(dets) is not list:
                return None
            for d in dets:
                if type(d) is not dict or d.keys() != _PAIR_KEYS:
                    return None
                v, t = d["v"], d["t"]
                if type(v) is not list or type(t) is not list or len(v) != 4 or len(t) != 4:
                    return None
                values += v
                values += t
                values.append(d["score"])
            frame_ids.append(fid)
            counts.append(len(dets))
            if len(values) >= _CHUNK_VALUES:
                chunks.append(_float_rows(values))
                values = []
    chunks.append(_float_rows(values))
    if any(c is None for c in chunks):
        return None
    rows = np.concatenate(chunks)
    boxes, score = rows[:, :8], rows[:, 8]
    if (
        np.all(np.abs(boxes) <= 1e100)  # NaN fails it too
        and np.all(boxes[:, [2, 3, 6, 7]] >= 0.0)
        and np.all((score >= 0.0) & (score <= 1.0))
        and len(set(frame_ids)) == len(frame_ids)
    ):
        return DetectionTable(frame_ids, np.cumsum([0] + counts), rows[:, :4], rows[:, 4:8], score)
    return None


def _float_rows(values: list) -> Optional[np.ndarray]:
    """``values`` as (n, 9) float64 rows, or None unless every value is a
    float or an integer that converts exactly (bools excluded)."""
    kinds = set(map(type, values))
    if not kinds <= {float, int}:
        return None
    if int in kinds and not all(
        -_EXACT_INT <= x <= _EXACT_INT for x in values if type(x) is int
    ):
        return None
    return np.array(values, dtype=np.float64).reshape(-1, _ROW)


def _read_detections_scalar(path) -> list[FrameDetections]:
    """Parse a detection file record by record, field by field."""
    out: list[FrameDetections] = []
    seen: set[FrameId] = set()
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            record = _load_json_line(line, path, line_no)
            _check_keys(record, {"frame", "dets"}, path, line_no, "detection record")
            fid = _parse_frame_id(record, path, line_no)
            if fid in seen:
                raise ParseError(path, line_no, f"duplicate frame id {fid!r}")
            seen.add(fid)
            raw_dets = record.get("dets")
            if not isinstance(raw_dets, list):
                raise ParseError(path, line_no, "missing or invalid 'dets' list")
            dets = []
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
                    dets.append(Detection(PairedBox.aligned(box), score))
                else:
                    if "v" not in raw or "t" not in raw:
                        raise ParseError(
                            path, line_no,
                            f"dets[{k}]: needs 'v' and 't' boxes (or a single 'box')",
                        )
                    box_v = _parse_box(raw["v"], path, line_no, f"dets[{k}].v")
                    box_t = _parse_box(raw["t"], path, line_no, f"dets[{k}].t")
                    dets.append(Detection(PairedBox(box_v, box_t), score))
            out.append(FrameDetections(fid, tuple(dets)))
    return out


def write_detections(detections: Sequence[FrameDetections], path) -> None:
    """Write the canonical paired detection form."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for fd in detections:
            record = {
                "frame": fd.frame_id,
                "dets": [
                    {
                        "v": _box_json(d.pair.visible),
                        "t": _box_json(d.pair.thermal),
                        "score": float(d.score),
                    }
                    for d in fd.detections
                ],
            }
            fh.write(_dump(record) + "\n")
