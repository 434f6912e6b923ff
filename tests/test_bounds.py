import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pwlregions.bounds import (
    bound_report,
    deep_maxout_lower,
    deep_rectifier_lower,
    deep_rectifier_lower_refined,
    fold_counts,
    maxout_layer_bounds,
    rectifier_upper_bound,
    regions_per_parameter,
    report_to_dict,
    report_to_text,
    shallow_max_regions,
)
from pwlregions.network import maxout_structure, rectifier_structure


def test_shallow_max_values():
    assert shallow_max_regions(2, 3) == 7
    assert shallow_max_regions(2, 4) == 11
    assert shallow_max_regions(1, 1) == 2
    assert shallow_max_regions(3, 0) == 1
    # once n1 <= n0 every pattern is reachable
    assert shallow_max_regions(5, 3) == 8


def test_upper_bound_is_two_to_total_units():
    assert rectifier_upper_bound(rectifier_structure(2, (4, 4, 4))) == 2**12
    assert rectifier_upper_bound(rectifier_structure(1, (1,))) == 2
    with pytest.raises(ValueError):
        rectifier_upper_bound(maxout_structure(2, (2,), 2))


def test_deep_lower_values():
    assert deep_rectifier_lower(rectifier_structure(2, (4, 4, 4))) == 176
    assert deep_rectifier_lower(rectifier_structure(2, (4, 4))) == 44
    assert deep_rectifier_lower(rectifier_structure(1, (2, 2))) == 6
    assert deep_rectifier_lower(rectifier_structure(2, (5, 3))) == 28
    with pytest.raises(ValueError):
        deep_rectifier_lower(rectifier_structure(3, (2, 4)))


def test_refined_lower_uses_remainder():
    plain = deep_rectifier_lower(rectifier_structure(2, (5, 3)))
    refined = deep_rectifier_lower_refined(rectifier_structure(2, (5, 3)))
    assert (plain, refined) == (28, 42)
    # no remainder: the two coincide
    s = rectifier_structure(2, (4, 4))
    assert deep_rectifier_lower_refined(s) == deep_rectifier_lower(s)


def refined_closed_form(n0, widths):
    """q**(n0-m) * (q+1)**m per hidden layer, q, m = divmod(width, n0),
    times the shallow maximum of the last layer."""
    prod = 1
    for w in widths[:-1]:
        q, m = divmod(w, n0)
        prod *= q ** (n0 - m) * (q + 1) ** m
    return prod * shallow_max_regions(n0, widths[-1])


@pytest.mark.parametrize("n0", [1, 2, 3, 4])
def test_refined_lower_matches_its_closed_form(n0):
    for depth in (1, 2, 3):
        for widths in itertools.product(range(n0, 13), repeat=depth):
            s = rectifier_structure(n0, widths)
            assert deep_rectifier_lower_refined(s) == refined_closed_form(n0, widths)


def test_fold_counts():
    assert fold_counts(2, 5) == (2, 3)
    assert fold_counts(2, 5, refined=False) == (2, 2)
    assert fold_counts(3, 7) == (2, 2, 3)
    with pytest.raises(ValueError):
        fold_counts(3, 2)


def test_maxout_bounds():
    lower, upper = maxout_layer_bounds(2, 2, 3)
    assert lower == 9 and lower <= upper
    assert maxout_layer_bounds(1, 3, 2)[0] == 2
    assert deep_maxout_lower(2, 2, 2) == 8
    assert deep_maxout_lower(2, 2, 3) == 27
    assert deep_maxout_lower(1, 1, 5) == 5


def test_regions_per_parameter_deep_wins_eventually():
    """The deep/shallow ratio gap dips at depth 2 (the folding factor has
    not kicked in while the parameters already doubled), then grows
    geometrically and passes the shallow stack for good."""
    gaps = []
    for depth in range(1, 7):
        deep, shallow = regions_per_parameter(2, 4, depth)
        gaps.append(deep / shallow)
    assert gaps[0] == 1
    assert gaps[1] < 1
    assert all(a < b for a, b in zip(gaps[1:], gaps[2:]))
    assert gaps[-1] > 10


def test_regions_per_parameter_exact_fractions():
    deep, shallow = regions_per_parameter(2, 4, 3)
    assert deep == Fraction(176, 52)
    assert shallow == Fraction(79, 36)


def test_bound_report_rectifier():
    rep = bound_report(rectifier_structure(2, (4, 4, 4)))
    assert rep.deep_lower == 176
    assert rep.upper_2n == 4096
    assert rep.shallow_max == 79
    assert rep.params == 52
    doc = report_to_dict(rep)
    assert doc["regions_per_param"] == {"deep": "44/13", "shallow": "79/36"}
    text = report_to_text(rep)
    assert "deep_lower" in text and "176" in text


def test_bound_report_maxout():
    rep = bound_report(maxout_structure(2, (2, 2), 3))
    assert rep.maxout_lower == 27
    assert rep.maxout_upper is None
    assert any("upper" in n for n in rep.notes)
    single = bound_report(maxout_structure(2, (3,), 2))
    assert single.maxout_lower == 4
    assert single.maxout_upper is not None


def test_bound_report_skips_narrow_layers():
    rep = bound_report(rectifier_structure(3, (2, 5)))
    assert rep.deep_lower is None
    assert rep.notes


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=12))
def test_shallow_max_matches_binomial_sum(n0, n1):
    assert shallow_max_regions(n0, n1) == sum(math.comb(n1, j) for j in range(n0 + 1))


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=3),
    st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=4),
)
def test_bound_ordering_property(n0, widths):
    """lower <= refined <= upper whenever the folding hypotheses hold."""
    s = rectifier_structure(n0, tuple(widths))
    upper = rectifier_upper_bound(s)
    if all(w >= n0 for w in widths):
        lower = deep_rectifier_lower(s)
        refined = deep_rectifier_lower_refined(s)
        assert lower <= refined <= upper
        # appending a foldable layer can only help
        deeper = rectifier_structure(n0, tuple(widths[:-1]) + (2 * n0, widths[-1]))
        assert deep_rectifier_lower(deeper) >= lower
    assert shallow_max_regions(n0, sum(widths)) <= upper
