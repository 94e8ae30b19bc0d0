"""The input and output files: JSON-Lines annotation and detection files,
and the single-document anchor and loss sample files.

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
its line too. Each file is read in one pass into the columns of a
:class:`~pairbox.evaluation.GtTable` or a :class:`~pairbox.evaluation.DetectionTable`,
and written from them, one frame's values at a time.

An anchor file (``assign --anchors``) and a loss sample file (``losses``)
each hold one JSON document, read by :func:`read_anchors` and
:func:`read_samples`; an error in one is reported at line 1 and names the
entry (``anchors[k].v``, ``rpn.cfg.n_cls``). All four readers check fields
with the same checkers, so a value is refused in the same words everywhere.
"""

from __future__ import annotations

import io
import json
import sys
from typing import Optional

import numpy as np

from .evaluation import OCCLUSION_LEVELS, DatasetMeta, DetectionTable, FrameId, GtTable
from .geometry import Box
from .regression import BACKGROUND_CLASS, LossConfig

__all__ = [
    "ParseError",
    "DatasetMeta",
    "GtTable",
    "read_dataset",
    "write_dataset",
    "read_detections",
    "detection_lines",
    "write_detections",
    "read_json",
    "read_anchors",
    "read_samples",
]


class ParseError(ValueError):
    """A malformed record, reported with file path and line number."""

    def __init__(self, path, line_no: int, reason: str):
        super().__init__(f"{path}:{line_no}: {reason}")
        self.path = path
        self.line_no = line_no
        self.reason = reason

    def __reduce__(self):  # ``args`` holds the message alone
        return type(self), (self.path, self.line_no, self.reason)


def _is_number(v) -> bool:
    # compared exactly, so an integer too large for a float is not finite either
    return isinstance(v, (int, float)) and not isinstance(v, bool) and abs(v) <= sys.float_info.max


def _record(value, keys: set, path, line_no: int, field: str) -> dict:
    """``value`` if it is a JSON object with no key outside ``keys``."""
    if not isinstance(value, dict):
        raise ParseError(path, line_no, f"{field}: expected a JSON object")
    unknown = sorted(set(value) - keys)
    if unknown:
        raise ParseError(path, line_no, f"{field}: unknown field(s) {', '.join(unknown)}")
    return value


def _check(convert, value, path, line_no: int, field: str):
    """``convert(value)``; a TypeError or ValueError it raises is a ParseError
    naming ``field``. So ``convert`` raises no ParseError: its field would show twice."""
    try:
        return convert(value)
    except (TypeError, ValueError) as exc:
        raise ParseError(path, line_no, f"{field}: {exc}") from None


def _field(raw: dict, key: str, convert, path, line_no: int, where: str, default=None):
    """:func:`_check` of ``raw[key]`` (or ``default`` if it is absent) naming
    the field ``where.key``; a required (no default) key that is absent is ``missing``."""
    if key not in raw and default is None:
        raise ParseError(path, line_no, f"{where}.{key}: missing")
    return _check(convert, raw.get(key, default), path, line_no, f"{where}.{key}")


def _number(value) -> float:
    """A JSON number as a float; strings, bools, NaN, infinities and integers
    too large for a float are refused."""
    if not _is_number(value):
        raise TypeError("expected a finite number")
    return float(value)


def _integer(value) -> int:
    _number(value)
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def _array(value) -> list:
    if not isinstance(value, list):
        raise TypeError("expected a JSON array")
    return value


def _floats(value) -> tuple[float, ...]:
    return tuple(map(_number, _array(value)))


def _four_floats(value) -> tuple[float, ...]:
    values = _floats(value)
    if len(values) != 4:
        raise ValueError(f"expected 4 offset values, got shape ({len(values)},)")
    return values


def _box(value) -> Box:
    if (
        not isinstance(value, list)
        or len(value) != 4
        or not all(_is_number(v) for v in value)
    ):
        raise TypeError("expected [x, y, w, h] with finite numbers")
    return Box(*(float(v) for v in value))


def _parse_frame(record: dict, key: str, path, line_no: int, field: str, seen) -> tuple[FrameId, list]:
    """A ``{"frame", key}`` record's new frame id and its ``key`` list."""
    _record(record, {"frame", key}, path, line_no, field)
    if "frame" not in record:
        raise ParseError(path, line_no, "missing 'frame' field")
    fid = record["frame"]
    if isinstance(fid, bool) or not isinstance(fid, (str, int)):
        raise ParseError(path, line_no, f"frame id must be a string or integer, got {fid!r}")
    if fid in seen:
        raise ParseError(path, line_no, f"duplicate frame id {fid!r}")
    if not isinstance(record.get(key), list):
        raise ParseError(path, line_no, f"missing or invalid '{key}' list")
    return fid, record[key]


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


def _records(path, start: int = 0, stop: Optional[int] = None):
    """The numbered JSON objects on the non-blank lines in bytes
    ``start:stop`` of a JSON-Lines file (to its end if ``stop`` is None),
    counted from ``start``; a line that is not UTF-8, JSON or an object is a
    ParseError at that line."""
    with open(path, "rb") as fh:
        if start:  # so that a whole pipe reads too
            fh.seek(start)
        data = fh if stop is None else io.BytesIO(fh.read(max(stop - start, 0)))
        text = io.TextIOWrapper(data, encoding="utf-8", errors="surrogateescape")
        for line_no, line in enumerate(text, start=1):
            _check_utf8(line, path, line_no)
            if not line.strip():
                continue
            record = _loads(line, path, line_no)
            if not isinstance(record, dict):
                raise ParseError(path, line_no, "expected a JSON object")
            yield line_no, record


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


def _parse_meta(record: dict, path, line_no: int) -> DatasetMeta:
    meta = _record(record["meta"], {"name", "width", "height"}, path, line_no, "meta")
    name = meta.get("name", "")
    if not isinstance(name, str):
        raise ParseError(path, line_no, "meta.name: expected a string")
    width = meta.get("width", 640.0)
    height = meta.get("height", 512.0)
    if not _is_number(width) or not _is_number(height) or width <= 0 or height <= 0:
        raise ParseError(path, line_no, "meta.width/height: expected positive numbers")
    return DatasetMeta(name=name, image_width=float(width), image_height=float(height))


def _plain_rows(values: list, table) -> Optional[np.ndarray]:
    """``values`` as ``table`` rows if they are plain numbers within its row bounds, or None."""
    # bools are not numbers here; numpy converts an int exactly as float() does
    if not set(map(type, values)) <= {float, int}:
        return None
    try:
        rows = np.array(values, dtype=np.float64).reshape(-1, table.ROW_LO.size)
    except OverflowError:  # an integer too large for a float
        return None
    inside = (table.ROW_LO <= rows) & (rows <= table.ROW_HI)  # NaN is outside
    return rows if inside.all() else None


_OBJECT_KEYS = {"v", "t", "occ", "ignore"}
_GT_ROW = GtTable.ROW_LO.size  # v[0:4], t[4:8]


def read_dataset(path) -> GtTable:
    """Parse an annotation file into columns in one pass over its lines, as
    :func:`read_detections` parses a detection file."""
    meta = DatasetMeta()
    frame_ids: list[FrameId] = []
    blocks, occ, ignore, seen = [], [], [], set()
    for line_no, record in _records(path):
        if "meta" in record:
            if line_no != 1 or frame_ids:
                raise ParseError(path, line_no, "metadata line only allowed first")
            _record(record, {"meta"}, path, line_no, "metadata line")
            meta = _parse_meta(record, path, line_no)
            continue
        fid, objects = _parse_frame(record, "objects", path, line_no, "frame record", seen)
        rows, codes, flags = _canonical_objects(objects) or _parse_objects(objects, path, line_no)
        seen.add(fid)
        frame_ids.append(fid)
        blocks.append(rows)
        occ += codes
        ignore += flags
    offsets = np.cumsum([0] + [len(b) for b in blocks])
    rows = np.concatenate([np.zeros((0, _GT_ROW)), *blocks])
    return GtTable(frame_ids, offsets, rows, occ, ignore, meta)


def _canonical_objects(objects: list) -> Optional[tuple[np.ndarray, list, list]]:
    """The (n, 8) rows, occlusion codes and ignore flags of a canonical
    ``objects`` list (``{"v", "t", "occ", "ignore"}`` objects, a known
    ``occ``, a boolean ``ignore``, boxes as :func:`_plain_rows`), or None."""
    values, occ, ignore = [], [], []
    for o in objects:
        if type(o) is not dict or o.keys() != _OBJECT_KEYS:
            return None
        v, t, level = o["v"], o["t"], o["occ"]
        if (type(v) is not list or type(t) is not list or len(v) != 4 or len(t) != 4
                or level not in OCCLUSION_LEVELS or type(o["ignore"]) is not bool):
            return None
        values += v
        values += t
        occ.append(OCCLUSION_LEVELS.index(level))
        ignore.append(o["ignore"])
    rows = _plain_rows(values, GtTable)
    return None if rows is None else (rows, occ, ignore)


def _parse_objects(objects: list, path, line_no: int) -> tuple[np.ndarray, list, list]:
    """:func:`_canonical_objects` of any ``objects`` list, checked field by field."""
    rows, occ, ignore = [], [], []
    for k, raw in enumerate(objects):
        raw = _record(raw, _OBJECT_KEYS, path, line_no, f"objects[{k}]")
        if "v" not in raw or "t" not in raw:
            raise ParseError(path, line_no, f"objects[{k}]: needs both 'v' and 't' boxes")
        box_v = _check(_box, raw["v"], path, line_no, f"objects[{k}].v")
        box_t = _check(_box, raw["t"], path, line_no, f"objects[{k}].t")
        level = raw.get("occ", "none")
        if level not in OCCLUSION_LEVELS:
            raise ParseError(path, line_no,
                             f"objects[{k}].occ: expected one of {OCCLUSION_LEVELS}, got {level!r}")
        flag = raw.get("ignore", False)
        if not isinstance(flag, bool):
            raise ParseError(path, line_no, f"objects[{k}].ignore: expected a boolean")
        rows.append(box_v.as_tuple() + box_t.as_tuple())
        occ.append(OCCLUSION_LEVELS.index(level))
        ignore.append(flag)
    return np.array(rows, dtype=np.float64).reshape(-1, _GT_ROW), occ, ignore


def _dump(record: dict) -> str:
    return json.dumps(record, separators=(",", ":"), ensure_ascii=True)


def _frame_rows(table, columns: tuple):
    """Each frame's id and its rows, as tuples of one list item per column
    of ``columns``, in frame order; only one frame's rows are turned into
    Python values at a time."""
    for fid, lo, hi in zip(table.frame_ids, table.offsets, table.offsets[1:]):
        yield fid, zip(*(column[lo:hi].tolist() for column in columns))


def write_dataset(table: GtTable, path) -> None:
    """Write the canonical annotation form (metadata line, then frames)."""
    meta = table.meta
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(_dump({"meta": {"name": meta.name, "width": float(meta.image_width),
                                 "height": float(meta.image_height)}}) + "\n")
        for fid, rows in _frame_rows(table, (table.v, table.t, table.occ, table.ignore)):
            objects = [{"v": v, "t": t, "occ": OCCLUSION_LEVELS[occ], "ignore": ignore}
                       for v, t, occ, ignore in rows]
            fh.write(_dump({"frame": fid, "objects": objects}) + "\n")


_PAIR_KEYS = {"v", "t", "score"}
_ROW = DetectionTable.ROW_LO.size  # v[0:4], t[4:8], score[8]


def read_detections(path, start: int = 0, stop: Optional[int] = None) -> DetectionTable:
    """Parse a detection file into columns in one pass over its lines;
    single-box records are duplicated into pairs.

    With ``start`` and ``stop``, which lie on line boundaries, only the
    lines in those bytes are read, and line numbers count from ``start``.

    A record in the canonical paired form becomes its rows in one step;
    any other record is parsed field by field, which reports the first bad
    field of the first bad record.
    """
    frame_ids: list[FrameId] = []
    blocks: list[np.ndarray] = []
    seen: set[FrameId] = set()
    for line_no, record in _records(path, start, stop):
        fid, dets = _parse_frame(record, "dets", path, line_no, "detection record", seen)
        rows = _canonical_rows(dets)
        if rows is None:
            rows = _parse_detection_record(dets, path, line_no)
        seen.add(fid)
        frame_ids.append(fid)
        blocks.append(rows)
    offsets = np.cumsum([0] + [len(b) for b in blocks])
    rows = np.concatenate([np.zeros((0, _ROW)), *blocks])
    return DetectionTable(frame_ids, offsets, rows)


def _canonical_rows(dets: list) -> Optional[np.ndarray]:
    """The (n, 9) rows of a ``dets`` list of ``{"v", "t", "score"}``
    detections whose values are plain numbers within the table's row
    bounds, or None for any other list."""
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
    return _plain_rows(values, DetectionTable)


def _parse_detection_record(dets: list, path, line_no: int) -> np.ndarray:
    """The (n, 9) rows of one detection record's ``dets`` list, checked field by field."""
    rows = []
    for k, raw in enumerate(dets):
        raw = _record(raw, {"v", "t", "box", "score"}, path, line_no, f"dets[{k}]")
        score = _check(_number, raw.get("score"), path, line_no, f"dets[{k}].score")
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
            box_v = box_t = _check(_box, raw["box"], path, line_no, f"dets[{k}].box")
        else:
            if "v" not in raw or "t" not in raw:
                raise ParseError(
                    path, line_no,
                    f"dets[{k}]: needs 'v' and 't' boxes (or a single 'box')",
                )
            box_v = _check(_box, raw["v"], path, line_no, f"dets[{k}].v")
            box_t = _check(_box, raw["t"], path, line_no, f"dets[{k}].t")
        rows.append(box_v.as_tuple() + box_t.as_tuple() + (score,))
    return np.array(rows, dtype=np.float64).reshape(-1, _ROW)


def detection_lines(table: DetectionTable):
    """The lines of the canonical paired detection form of the table, one per frame."""
    for fid, rows in _frame_rows(table, (table.v, table.t, table.score)):
        dets = [{"v": v, "t": t, "score": score} for v, t, score in rows]
        yield _dump({"frame": fid, "dets": dets}) + "\n"


def write_detections(table: DetectionTable, path) -> None:
    """Write the canonical paired detection form from the table's columns."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(detection_lines(table))


def read_anchors(path) -> tuple[np.ndarray, np.ndarray]:
    """The visible and thermal ``(n, 4)`` boxes of an anchor file's
    ``anchors`` list."""
    payload = read_json(path)
    if not isinstance(payload, dict) or not isinstance(payload.get("anchors"), list):
        raise ParseError(path, 1, "expected an object with an 'anchors' list")
    _record(payload, {"anchors"}, path, 1, "top level")
    visible, thermal = [], []
    for k, raw in enumerate(payload["anchors"]):
        if not isinstance(raw, dict) or "v" not in raw or "t" not in raw:
            raise ParseError(path, 1, f"anchors[{k}]: expected 'v' and 't' boxes")
        _record(raw, {"v", "t"}, path, 1, f"anchors[{k}]")
        visible.append(_check(_box, raw["v"], path, 1, f"anchors[{k}].v").as_tuple())
        thermal.append(_check(_box, raw["t"], path, 1, f"anchors[{k}].t").as_tuple())
    return tuple(np.array(boxes, dtype=np.float64).reshape(-1, 4) for boxes in (visible, thermal))


_OFFSET_KEYS = ("pred_v", "pred_t", "target_v", "target_t")


def read_samples(path):
    """The ``rpn`` and ``detector`` sections of a loss sample file, and the
    set of section names it holds; an absent section parses as no samples.

    ``rpn`` is ``(logits, labels, offsets, cfg)``: the samples' logit and
    label columns, the positives' offset rows and the :class:`LossConfig`.
    ``detector`` is ``(scores, true_class, offsets, lam)``: the samples'
    class-score rows and true-class column, the foreground samples' offset
    rows and the regression weight. An offset row is a sample's ``pred_v``,
    ``pred_t``, ``target_v`` and ``target_t``, four numbers each.
    """
    payload = read_json(path)
    if not isinstance(payload, dict):
        raise ParseError(path, 1, "expected a JSON object")
    _record(payload, {"rpn", "detector"}, path, 1, "top level")
    return (_rpn_samples(payload.get("rpn", {}), path),
            _detector_samples(payload.get("detector", {}), path), set(payload))


def _rpn_samples(section, path):
    section = _record(section, {"cfg", "samples"}, path, 1, "rpn")
    raw_cfg = _record(section.get("cfg", {}), {"lambda", "n_cls", "n_reg"}, path, 1, "rpn.cfg")
    raw_samples = _field(section, "samples", _array, path, 1, "rpn", [])
    n_default = max(len(raw_samples), 1)
    fields = (_field(raw_cfg, "lambda", _number, path, 1, "rpn.cfg", 1.0),
              _field(raw_cfg, "n_cls", _integer, path, 1, "rpn.cfg", n_default),
              _field(raw_cfg, "n_reg", _integer, path, 1, "rpn.cfg", n_default))
    # built once its fields are checked, so that a field's error is not the config's too
    cfg = _check(lambda args: LossConfig(*args), fields, path, 1, "rpn.cfg")
    logits, labels, offsets = [], [], []
    for k, raw in enumerate(raw_samples):
        where = f"rpn.samples[{k}]"
        raw = _record(raw, {"logit", "label", *_OFFSET_KEYS}, path, 1, where)
        label = raw.get("label")
        if label not in (0, 1) or isinstance(label, bool):
            raise ParseError(path, 1, f"{where}.label: expected 0 or 1")
        logits.append(_field(raw, "logit", _number, path, 1, where))
        labels.append(int(label))
        if label == 1:
            offsets.append([_field(raw, key, _four_floats, path, 1, where) for key in _OFFSET_KEYS])
    return np.array(logits, dtype=np.float64), np.array(labels), offsets, cfg


def _detector_samples(section, path):
    section = _record(section, {"lambda", "samples"}, path, 1, "detector")
    lam = _field(section, "lambda", _number, path, 1, "detector", 1.0)
    if lam < 0:
        raise ParseError(path, 1, f"detector.lambda: must be >= 0, got {lam!r}")
    scores, classes, offsets = [], [], []
    for k, raw in enumerate(_field(section, "samples", _array, path, 1, "detector", [])):
        where = f"detector.samples[{k}]"
        raw = _record(raw, {"scores", "true_class", *_OFFSET_KEYS}, path, 1, where)
        row = _field(raw, "scores", _floats, path, 1, where, [])
        true_class = _field(raw, "true_class", _integer, path, 1, where, 0)
        if true_class != BACKGROUND_CLASS:
            offsets.append([_field(raw, key, _four_floats, path, 1, where) for key in _OFFSET_KEYS])
        if not row:
            raise ParseError(path, 1, f"{where}: class_scores must be non-empty")
        if not 0 <= true_class < len(row):
            raise ParseError(path, 1, f"{where}: true_class {true_class} out of range for {len(row)} classes")
        scores.append(np.array(row, dtype=np.float64))
        classes.append(true_class)
    return scores, np.array(classes), offsets, lam
