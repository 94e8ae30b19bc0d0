"""Hypothesis strategies that break one thing in a valid JSON-Lines file.

A mutation parses one line, then drops a key, replaces a value (with a
boolean, null, string, container, non-finite or out-of-range number, or an
integer too large for a float), copies another line's frame id into it, or
truncates the line's text; JSON is written back with ``NaN``/``Infinity``
literals where the value calls for them. With ``bad_bytes`` a mutation may
instead put a byte that is not UTF-8 into the line, as the lone surrogate
that ``errors="surrogateescape"`` writes back as that byte.
"""

from __future__ import annotations

import json

from hypothesis import strategies as st

BAD_VALUES = (
    True, False, None, "1", [], {}, [0, 0, 1], 10**400,
    float("nan"), float("inf"), float("-inf"), -1.0, 1.0000001, 1e101, 2.5,
)


def slots(node, path=()):
    """Every path to a value inside ``node``, as tuples of keys and indices."""
    if isinstance(node, dict):
        items = node.items()
    else:
        items = enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        yield path + (key,)
        yield from slots(value, path + (key,))


def _parent(record, path):
    for key in path[:-1]:
        record = record[key]
    return record


def mutate(record, op: str, path, value):
    """``record`` with one change at ``path``; ``path == ()`` replaces the record."""
    if not path:
        return value
    parent = _parent(record, path)
    if op == "drop" and isinstance(parent, dict):
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return record


BAD_BYTES = (0x80, 0xC3, 0xFF)  # a lone continuation byte, a cut-off lead byte, never UTF-8


@st.composite
def mutated_text(draw, text: str, bad_bytes: bool = False) -> str:
    """``text`` (one JSON object per line) with exactly one line broken."""
    lines = text.splitlines()
    k = draw(st.integers(0, len(lines) - 1))
    ops = ["drop", "retype", "duplicate", "truncate"] + (["bad_byte"] if bad_bytes else [])
    op = draw(st.sampled_from(ops))
    if op == "truncate":
        lines[k] = lines[k][: draw(st.integers(1, len(lines[k]) - 1))]
        return "\n".join(lines) + "\n"
    if op == "bad_byte":
        at = draw(st.integers(0, len(lines[k])))
        byte = chr(0xDC00 + draw(st.sampled_from(BAD_BYTES)))
        lines[k] = lines[k][:at] + byte + lines[k][at:]
        return "\n".join(lines) + "\n"
    record = json.loads(lines[k])
    others = [json.loads(line) for j, line in enumerate(lines) if j != k]
    ids = [r["frame"] for r in others if "frame" in r]
    if op == "duplicate" and ids and "frame" in record:
        record["frame"] = draw(st.sampled_from(ids))
    else:
        path = draw(st.sampled_from([()] + list(slots(record))))
        record = mutate(record, op, path, draw(st.sampled_from(BAD_VALUES)))
    lines[k] = json.dumps(record, separators=(",", ":"))
    return "\n".join(lines) + "\n"
