"""Deterministic JSON rendering.

The stock ``json`` module prints floats with ``repr``, which is fine for
round-trips but leaves the exact byte sequence up to the shortest-repr
algorithm.  Reports and network files here are compared byte-for-byte
across runs, so every float is rendered with a fixed 17-significant-digit
format (enough to reconstruct the double exactly) and containers are
rendered in insertion order, indented by two spaces a level.  A list of
floats, or a list of non-empty float lists, is formatted with one
``%``-template, byte for byte as float by float.
"""

from __future__ import annotations

import json

_FLOAT = "%.17g"    # "%.17g" % x == format(x, ".17g") for every double
_INDENT = "  "


def _finite(text: str) -> str:
    if "n" in text:  # "nan", "inf", "-inf": no finite double prints an n
        raise ValueError("non-finite value in serialized payload")
    return text


def _bracket(items, pad: str, end: str) -> str:
    return "[" + pad + ("," + pad).join(items) + end + "]"


def _float_block(seq, pad: str, end: str) -> str | None:
    """``seq`` rendered in one ``%`` call when it is a list of floats or a
    list of non-empty float lists, else None.  ``pad`` precedes each item,
    ``end`` closes the list, and an inner list indents one level more."""
    if all(isinstance(v, float) for v in seq):
        template = _bracket([_FLOAT] * len(seq), pad, end)
    elif all(isinstance(v, (list, tuple)) and v and all(isinstance(x, float) for x in v)
             for v in seq):
        template = _bracket([_bracket([_FLOAT] * len(v), pad + _INDENT, pad) for v in seq],
                            pad, end)
        seq = [x for v in seq for x in v]
    else:
        return None
    return _finite(template % tuple(seq))


def _render(obj, out: list, level: int) -> None:
    pad = "\n" + _INDENT * (level + 1)
    end = "\n" + _INDENT * level
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        out.append(_finite(_FLOAT % obj))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{")
        for i, (k, v) in enumerate(obj.items()):
            if not isinstance(k, str):
                raise TypeError(f"non-string key {k!r}")
            out.append(("," if i else "") + pad)
            out.append(json.dumps(k) + ": ")
            _render(v, out, level + 1)
        out.append(end + "}")
    elif isinstance(obj, (list, tuple)):
        seq = list(obj)
        if not seq:
            out.append("[]")
            return
        block = _float_block(seq, pad, end)
        if block is not None:
            out.append(block)
            return
        out.append("[")
        for i, v in enumerate(seq):
            out.append(("," if i else "") + pad)
            _render(v, out, level + 1)
        out.append(end + "]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def render_json(obj) -> str:
    """Render ``obj`` to a JSON string with stable float formatting."""
    out: list = []
    _render(obj, out, 0)
    out.append("\n")
    return "".join(out)
