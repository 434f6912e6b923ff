"""JSON rendering: filled templates and float texts, byte for byte as float by float."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pwlregions.serialize import Rendered, float_texts, render_json, render_template


def _reference_float(x) -> str:
    x = float(x)
    if math.isnan(x) or math.isinf(x):
        raise ValueError("non-finite value in serialized payload")
    return format(x, ".17g")


def _reference(obj, out: list, level: int) -> None:
    """The renderer as it was before float blocks: one call per value."""
    pad = "\n" + "  " * (level + 1)
    end = "\n" + "  " * level
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        out.append(_reference_float(obj))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{")
        for i, (k, v) in enumerate(obj.items()):
            out.append(("," if i else "") + pad)
            out.append(json.dumps(k) + ": ")
            _reference(v, out, level + 1)
        out.append(end + "}")
    else:
        seq = list(obj)
        if not seq:
            out.append("[]")
            return
        out.append("[")
        for i, v in enumerate(seq):
            out.append(("," if i else "") + pad)
            _reference(v, out, level + 1)
        out.append(end + "]")


def reference_json(obj) -> str:
    out: list = []
    _reference(obj, out, 0)
    out.append("\n")
    return "".join(out)


EDGES = [-0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308,
         1e16, 1e-300, 1e300, 0.1, 1.0 / 3.0]
_finite = st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.sampled_from(EDGES))
FLOATS = st.one_of(_finite, _finite.map(np.float64))
FLOAT_LISTS = st.lists(FLOATS, max_size=5)
LEAVES = st.one_of(FLOATS, st.integers(), st.booleans(), st.none(), st.text(max_size=4),
                   FLOAT_LISTS, st.lists(FLOAT_LISTS, max_size=4))
VALUES = st.recursive(
    LEAVES,
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.lists(inner, max_size=3).map(tuple),
                            st.dictionaries(st.text(max_size=4), inner, max_size=4)),
    max_leaves=25)


@settings(max_examples=300, deadline=None)
@given(VALUES)
def test_render_matches_per_float_reference(obj):
    assert render_json(obj) == reference_json(obj)


# Where a non-finite value may sit: alone, in a float block, in a block
# of float rows, beside an int (the generic path), and under a dict key.
PLACES = [
    lambda x, v: x,
    lambda x, v: v + [x],
    lambda x, v: [v + [x] + v],
    lambda x, v: [[1.0], v + [x]],
    lambda x, v: [1, x] + v,
    lambda x, v: {"a": v, "b": {"c": [[x]]}},
]


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([math.nan, math.inf, -math.inf, np.float64("nan"), np.float64("-inf")]),
       st.sampled_from(PLACES), FLOAT_LISTS)
def test_non_finite_values_still_raise(bad, place, floats):
    obj = place(bad, list(floats))
    with pytest.raises(ValueError, match="non-finite"):
        reference_json(obj)
    with pytest.raises(ValueError, match="non-finite"):
        render_json(obj)


def _slot_values(obj):
    """The values that fill ``render_template(obj)``, in rendering order."""
    if isinstance(obj, float):
        yield _reference_float(obj)
    elif isinstance(obj, Rendered):
        return
    elif isinstance(obj, str):
        yield json.dumps(obj)
    elif isinstance(obj, dict):
        for v in obj.values():
            yield from _slot_values(v)
    elif isinstance(obj, (list, tuple)):
        for v in obj:
            yield from _slot_values(v)


@settings(max_examples=300, deadline=None)
@given(VALUES)
def test_filled_template_matches_render_json(obj):
    """Keys may hold a ``%``; the template doubles it."""
    assert render_template(obj) % tuple(_slot_values(obj)) + "\n" == render_json(obj)


def test_rendered_text_goes_in_as_it_stands():
    obj = {"a%": [Rendered("[1, 2%]"), 1.5, "x"]}
    assert render_json(obj) == '{\n  "a%": [\n    [1, 2%],\n    1.5,\n    "x"\n  ]\n}\n'
    assert render_template(obj) % ("1.5", '"x"') + "\n" == render_json(obj)


@settings(max_examples=200, deadline=None)
@given(st.lists(FLOATS, max_size=40))
def test_float_texts_match_the_per_float_reference(xs):
    """Each distinct bit pattern is formatted once: -0.0 and 0.0 stay apart."""
    assert float_texts(np.array(xs, dtype=float)) == [_reference_float(x) for x in xs]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_float_texts_refuse_a_non_finite_value(bad):
    with pytest.raises(ValueError, match="non-finite"):
        float_texts(np.array([1.0, bad, -0.0]))
