"""Closed-form region-count bounds, evaluated in exact arithmetic.

Everything here works on shapes only (input dimension, layer widths,
maxout rank) and returns Python ints or Fractions; no floats enter any
formula, so values are exact at any size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from fractions import Fraction

from .network import (
    MAXOUT,
    RECTIFIER,
    NetworkStructure,
    parameter_count,
    rectifier_structure,
    structure_of,
)


def shallow_max_regions(n0: int, n1: int) -> int:
    """Largest region count of a single layer of n1 rectifier units on R^n0.

    Equals sum_{j=0}^{n0} C(n1, j); attained exactly when the n1 unit
    hyperplanes are in general position.
    """
    if n0 < 1 or n1 < 0:
        raise ValueError("need n0 >= 1 and n1 >= 0")
    return sum(math.comb(n1, j) for j in range(n0 + 1))


def rectifier_upper_bound(structure) -> int:
    """2**N over the total unit count N: every unit is binary, so the
    activation patterns — and hence the regions — can never exceed this."""
    s = structure_of(structure)
    for _, act in s.layers:
        if act.kind != RECTIFIER:
            raise ValueError("upper bound 2**N applies to rectifier stacks only")
    return 2 ** sum(s.widths)


def _check_deep_rectifier(s: NetworkStructure):
    n0 = s.input_dim
    for w, act in s.layers:
        if act.kind != RECTIFIER:
            raise ValueError("deep rectifier bounds need rectifier layers")
        if w < n0:
            raise ValueError(
                "deep rectifier bounds require every hidden width >= input dimension"
            )


def deep_rectifier_lower(structure) -> int:
    """Attainable region count for a deep rectifier stack.

    prod_{l<L} floor(n_l/n0)^n0 times the shallow maximum of the last
    layer.  Requires every width >= n0.
    """
    return _folded_lower(structure, refined=False)


def deep_rectifier_lower_refined(structure) -> int:
    """Sharper variant: remainder units deepen the fold count of the last
    n_l mod n0 coordinate groups instead of being wasted.

    Each hidden layer multiplies the product of its ``fold_counts``, the
    rule ``build_folding_rectifier_net`` folds by.
    """
    return _folded_lower(structure, refined=True)


def _folded_lower(structure, refined: bool) -> int:
    """The product of every hidden layer's ``fold_counts`` times the
    shallow maximum of the last layer."""
    s = structure_of(structure)
    _check_deep_rectifier(s)
    n0 = s.input_dim
    prod = 1
    for w in s.widths[:-1]:
        prod *= math.prod(fold_counts(n0, w, refined))
    return prod * shallow_max_regions(n0, s.widths[-1])


def fold_counts(n0: int, width: int, refined: bool = True) -> tuple[int, ...]:
    """Per-coordinate fold counts for one folding layer of ``width`` units.

    The remainder ``width mod n0`` is assigned to the last groups when
    ``refined``; otherwise every group gets floor(width/n0) and the
    remainder units are ignored.
    """
    if width < n0:
        raise ValueError("folding layer needs width >= n0")
    q, m = divmod(width, n0)
    if not refined:
        return (q,) * n0
    return (q,) * (n0 - m) + (q + 1,) * m


def maxout_layer_bounds(n: int, m: int, k: int) -> tuple[int, int]:
    """(attainable, upper) region counts of one layer of m rank-k maxout
    units on R^n.

    The attainable value k**min(n, m) comes from parallel-hyperplane
    units; the upper bound is min(sum_{j<=n} C(k*k*m, j), k**m).
    """
    if n < 1 or m < 1 or k < 2:
        raise ValueError("need n >= 1, m >= 1, k >= 2")
    lower = k ** min(n, m)
    upper = min(shallow_max_regions(n, k * k * m), k ** m)
    return lower, upper


def deep_maxout_lower(n0: int, L: int, k: int) -> int:
    """Attainable count for L layers of width n0, rank k: k**(L-1+n0)."""
    if n0 < 1 or L < 1 or k < 2:
        raise ValueError("need n0 >= 1, L >= 1, k >= 2")
    return k ** (L - 1 + n0)


def regions_per_parameter(n0: int, width: int, depth: int) -> tuple[Fraction, Fraction]:
    """Regions-per-parameter ratios of a deep constant-width rectifier stack
    versus the single-layer stack with the same total number of units.

    Denominators come from ``parameter_count`` on both shapes.  For
    depth == 1 the two shapes coincide and the ratios are equal.
    """
    if width < n0:
        raise ValueError("requires width >= input dimension")
    deep = rectifier_structure(n0, (width,) * depth)
    shallow = rectifier_structure(n0, (width * depth,))
    deep_ratio = Fraction(deep_rectifier_lower(deep), parameter_count(deep))
    shallow_ratio = Fraction(
        shallow_max_regions(n0, width * depth), parameter_count(shallow)
    )
    return deep_ratio, shallow_ratio


# ---------------------------------------------------------------------------
# aggregate report

@dataclass(frozen=True)
class BoundReport:
    """Every bound that applies to a given shape; None where the formula's
    hypotheses do not hold."""

    input_dim: int
    widths: tuple[int, ...]
    kind: str                         # "rectifier" | "maxout"
    rank: int | None
    total_units: int
    params: int
    shallow_max: int | None           # width-matched single layer
    upper_2n: int | None
    deep_lower: int | None
    deep_lower_refined: int | None
    maxout_lower: int | None
    maxout_upper: int | None
    regions_per_param: tuple[Fraction, Fraction] | None
    notes: tuple[str, ...] = ()


def bound_report(structure) -> BoundReport:
    s = structure_of(structure)
    n0 = s.input_dim
    widths = s.widths
    kinds = {act.kind for _, act in s.layers}
    notes: list[str] = []
    if len(kinds) > 1:
        raise ValueError("mixed rectifier/maxout stacks have no closed-form report")
    kind = kinds.pop()
    rank = None if kind == RECTIFIER else s.layers[0][1].rank
    if kind == MAXOUT and len({act.rank for _, act in s.layers}) > 1:
        raise ValueError("maxout report needs a uniform rank")

    total = sum(s.widths)
    params = parameter_count(s)
    shallow = upper = lower = refined = mo_lower = mo_upper = rpp = None
    if kind == RECTIFIER:
        shallow = shallow_max_regions(n0, total)
        upper = rectifier_upper_bound(s)
        if all(w >= n0 for w in widths):
            lower = deep_rectifier_lower(s)
            refined = deep_rectifier_lower_refined(s)
        else:
            notes.append("deep lower bounds skipped: some width < input dimension")
        if len(set(widths)) == 1 and widths[0] >= n0:
            rpp = regions_per_parameter(n0, widths[0], len(widths))
        elif len(widths) > 1:
            notes.append("regions-per-parameter defined for constant widths only")
    else:
        if len(widths) == 1:
            mo_lower, mo_upper = maxout_layer_bounds(n0, widths[0], rank)
        elif all(w == n0 for w in widths):
            mo_lower = deep_maxout_lower(n0, len(widths), rank)
            notes.append("no closed-form upper bound for deep maxout stacks")
        else:
            notes.append(
                "deep maxout lower bound needs width == input dimension at every layer"
            )
    return BoundReport(
        input_dim=n0,
        widths=widths,
        kind=kind,
        rank=rank,
        total_units=total,
        params=params,
        shallow_max=shallow,
        upper_2n=upper,
        deep_lower=lower,
        deep_lower_refined=refined,
        maxout_lower=mo_lower,
        maxout_upper=mo_upper,
        regions_per_param=rpp,
        notes=tuple(notes),
    )


def report_to_dict(r: BoundReport) -> dict:
    """The report's fields in declaration order, without the None ones and
    empty notes; tuples become lists, and the regions-per-parameter pair a
    ``{"deep", "shallow"}`` dict of ``num/den`` strings."""
    doc: dict = {}
    for f in fields(r):
        val = getattr(r, f.name)
        if val is None or val == ():
            continue
        if f.name == "regions_per_param":
            val = {key: f"{q.numerator}/{q.denominator}"
                   for key, q in zip(("deep", "shallow"), val)}
        doc[f.name] = list(val) if isinstance(val, tuple) else val
    return doc


def report_to_text(r: BoundReport) -> str:
    doc = report_to_dict(r)
    width = max(len(k) for k in doc)
    lines = []
    for k, v in doc.items():
        if isinstance(v, dict):
            v = ", ".join(f"{kk}={vv}" for kk, vv in v.items())
        elif isinstance(v, list):
            v = ", ".join(str(x) for x in v)
        lines.append(f"{k.ljust(width)}  {v}")
    return "\n".join(lines) + "\n"
