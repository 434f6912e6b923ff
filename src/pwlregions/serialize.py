"""Deterministic JSON rendering.

The stock ``json`` module prints floats with ``repr``, which is fine for
round-trips but leaves the exact byte sequence up to the shortest-repr
algorithm.  Reports and network files here are compared byte-for-byte
across runs, so every float is rendered with a fixed 17-significant-digit
format (enough to reconstruct the double exactly) and containers are
rendered in insertion order, indented by two spaces a level.  A large
report repeats a few layouts and most of its floats, so it is rendered by
shape: ``render_template`` renders a layout once, ``float_texts`` formats
each distinct float once, and each filled layout goes in as ``Rendered``.
"""

from __future__ import annotations

import json

import numpy as np

_FLOAT = "%.17g"    # "%.17g" % x == format(x, ".17g") for every double
_INDENT = "  "
_NON_FINITE = "non-finite value in serialized payload"


class Rendered(str):
    """Text that ``render_json`` places as it stands, rendered at its level."""


def _finite(text: str) -> str:
    if "n" in text:  # "nan", "inf", "-inf": no finite double prints an n
        raise ValueError(_NON_FINITE)
    return text


def _render(obj, out: list, level: int, slots: bool = False) -> None:
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
        out.append("%s" if slots else _finite(_FLOAT % obj))
    elif isinstance(obj, Rendered):
        out.append(obj.replace("%", "%%") if slots else obj)
    elif isinstance(obj, str):
        out.append("%s" if slots else json.dumps(obj))
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{")
        for i, (k, v) in enumerate(obj.items()):
            if not isinstance(k, str):
                raise TypeError(f"non-string key {k!r}")
            out.append(("," if i else "") + pad)
            out.append((json.dumps(k).replace("%", "%%") if slots else json.dumps(k)) + ": ")
            _render(v, out, level + 1, slots)
        out.append(end + "}")
    elif isinstance(obj, (list, tuple)):
        seq = list(obj)
        if not seq:
            out.append("[]")
            return
        out.append("[")
        for i, v in enumerate(seq):
            out.append(("," if i else "") + pad)
            _render(v, out, level + 1, slots)
        out.append(end + "]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def render_json(obj) -> str:
    """Render ``obj`` to a JSON string with stable float formatting."""
    out: list = []
    _render(obj, out, 0)
    out.append("\n")
    return "".join(out)


def render_template(obj, level: int = 0) -> str:
    """``obj`` at nesting ``level`` as a ``%``-template, its own ``%`` doubled:
    a ``%s`` slot per float, for its text from ``float_texts``, and per
    string, for its ``json.dumps``, in rendering order.  Filled with the
    values of an object of the same shape, it is that object's text."""
    out: list = []
    _render(obj, out, level, True)
    return "".join(out)


def float_texts(values: np.ndarray) -> list[str]:
    """The text of each float of a float64 array, as ``render_json`` prints
    it, each distinct value formatted once; a NaN or inf raises."""
    if not np.isfinite(values).all():
        raise ValueError(_NON_FINITE)
    bits, index = np.unique(values.view(np.int64), return_inverse=True)  # keeps -0.0 apart
    texts = np.array([_FLOAT % x for x in bits.view(np.float64).tolist()], dtype=object)
    return texts[index].tolist()
