"""Exact enumeration against hand geometry, the grid oracle, and itself."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pwlregions import regions
from pwlregions.constructions import build_abs_net, build_folding_rectifier_net
from pwlregions.network import ACT_RECTIFIER, Layer, Network, forward
from pwlregions.regions import (
    EnumerationError,
    FeasibilityConfig,
    RegionBudgetError,
    check_general_position,
    count_regions,
    enumerate_regions,
    exact_strictly_feasible,
    oracle_count_by_grid,
    polygon_area,
    region_polygons_2d,
)

BOX2 = FeasibilityConfig(box=((-2.0, 2.0), (-2.0, 2.0)))


def three_lines_net():
    # x = 0, y = 0, x + y = 1: general position, 7 cells
    W = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    b = np.array([0.0, 0.0, -1.0])
    return Network(2, (Layer(W, b, ACT_RECTIFIER),))


def test_abs_net_quadrants():
    net = build_abs_net().network
    rs = enumerate_regions(net, BOX2)
    assert rs.count == 4
    patterns = {r.pattern for r in rs.regions}
    assert ((1, 0, 1, 0),) in patterns  # open positive quadrant
    for r in rs.regions:
        assert r.clearance > 0
        assert r.contains(r.witness)


def test_three_lines_make_seven_cells():
    rs = enumerate_regions(three_lines_net(), BOX2)
    assert rs.count == 7
    areas = [polygon_area(poly) for poly in region_polygons_2d(rs)]
    assert all(a > 0 for a in areas)
    assert sum(areas) == pytest.approx(16.0, abs=1e-9)


def test_region_affine_matches_forward_at_witness():
    con = build_folding_rectifier_net(2, (4, 4))
    rs = enumerate_regions(con.network, FeasibilityConfig(box=con.spec.count_box))
    for r in rs.regions:
        assert np.max(np.abs(r.affine(r.witness) - forward(con.network, r.witness)[-1])) < 1e-8


def test_patterns_sorted_and_distinct():
    rs = enumerate_regions(three_lines_net(), BOX2)
    pats = [r.pattern for r in rs.regions]
    assert pats == sorted(pats)
    assert len(set(pats)) == len(pats)


def test_region_cap():
    with pytest.raises(RegionBudgetError) as err:
        enumerate_regions(build_abs_net().network, FeasibilityConfig(region_cap=2))
    assert err.value.cap == 2
    assert err.value.partial_count > 2


def _scale10_net():
    """A weight-scale-10 (6,6,6) net: on the default box its values reach
    ~1e6, where rounding alone leaves a map-versus-forward drift of ~1e-9."""
    rng = np.random.default_rng([3, 1, 4, 0])
    layers, fan = [], 2
    for w in (6, 6, 6):
        layers.append(Layer(10 * rng.normal(size=(w, fan)), 10 * rng.normal(size=w),
                            ACT_RECTIFIER))
        fan = w
    return Network(2, tuple(layers))


def test_drift_check_scales_with_magnitude():
    # an absolute 1e-9 bound refused this net (drift 1.86e-09)
    assert enumerate_regions(_scale10_net()).count == 290


def test_drift_check_catches_a_wrong_map(monkeypatch):
    # every composed map off by a relative 1e-6 must still be refused
    true_selection = regions.layer_selection

    def skewed(layer, states):
        W, b = true_selection(layer, states)
        return W * (1 + 1e-6), b * (1 + 1e-6)

    monkeypatch.setattr(regions, "layer_selection", skewed)
    with pytest.raises(EnumerationError, match="drifted"):
        enumerate_regions(three_lines_net())


def test_box_clips_regions():
    # sawtooth breakpoints at 0 and 1; a box left of 1 sees only two cells
    W = np.array([[1.0], [2.0]])
    b = np.array([0.0, -2.0])
    net = Network(1, (Layer(W, b, ACT_RECTIFIER),))
    assert count_regions(net, FeasibilityConfig(box=((-1.0, 0.9),))) == 2
    assert count_regions(net, FeasibilityConfig(box=((-1.0, 2.0),))) == 3


def test_config_validation():
    cfg = FeasibilityConfig(box=((0.0, 1.0),))
    with pytest.raises(ValueError):
        cfg.resolved_box(2)
    with pytest.raises(ValueError):
        FeasibilityConfig(box=((1.0, 0.0),)).resolved_box(1)
    with pytest.raises(ValueError):
        FeasibilityConfig(box_halfwidth=0.0).resolved_box(1)
    big = Network(5, (Layer(np.ones((1, 5)), np.zeros(1)),))
    with pytest.raises(ValueError):
        enumerate_regions(big)


def test_degenerate_rows_use_bias_sign():
    # an all-zero weight row never splits anything; its state is the bias sign
    W = np.array([[0.0, 0.0], [1.0, 0.0]])
    b = np.array([3.0, 0.0])
    net = Network(2, (Layer(W, b, ACT_RECTIFIER),))
    rs = enumerate_regions(net, BOX2)
    assert rs.count == 2
    assert all(r.pattern[0][0] == 1 for r in rs.regions)


def test_exact_strictly_feasible():
    ok, point = exact_strictly_feasible(
        np.array([[-1.0, 0.0], [0.0, -1.0], [1.0, 1.0]]), np.array([0.0, 0.0, 1.0])
    )
    assert ok
    x = [float(v) for v in point]
    assert x[0] > 0 and x[1] > 0 and x[0] + x[1] < 1
    bad, none = exact_strictly_feasible(np.array([[1.0], [-1.0]]), np.array([0.0, -1.0]))
    assert not bad and none is None


def test_exact_rational_backstop_keeps_counts():
    net = build_abs_net().network
    assert count_regions(net, FeasibilityConfig(exact_rational=True)) == 4


def test_oracle_matches_enumerator_on_shallow_nets():
    box = ((-2.0, 2.0), (-2.0, 2.0))
    for i in range(6):
        rng = np.random.default_rng([17, i])
        n1 = 3 + (i % 3)
        net = Network(2, (Layer(rng.normal(size=(n1, 2)), rng.normal(size=n1),
                                ACT_RECTIFIER),))
        exact = count_regions(net, FeasibilityConfig(box=box))
        assert oracle_count_by_grid(net, box, 700) == exact


def test_oracle_resolution_parity_insensitive():
    net = build_abs_net().network
    box = ((-1.0, 1.0), (-1.0, 1.0))
    assert oracle_count_by_grid(net, box, 401) == 4
    assert oracle_count_by_grid(net, box, 400) == 4


def test_general_position_checks():
    gp = [(np.array([1.0, 0.0]), 0.0), (np.array([0.0, 1.0]), 0.0),
          (np.array([1.0, 1.0]), 1.0)]
    assert check_general_position(gp, 2)
    parallel = [(np.array([1.0, 0.0]), 0.0), (np.array([2.0, 0.0]), 1.0)]
    assert not check_general_position(parallel, 2)
    concurrent = [(np.array([1.0, 0.0]), 0.0), (np.array([0.0, 1.0]), 0.0),
                  (np.array([1.0, 1.0]), 0.0)]
    assert not check_general_position(concurrent, 2)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_exact_feasibility_agrees_with_lp(data):
    """On small integer systems the rational decision matches the LP
    whenever the LP's optimum is comfortably signed."""
    m = data.draw(st.integers(min_value=1, max_value=4))
    n = data.draw(st.integers(min_value=1, max_value=2))
    ints = st.integers(min_value=-3, max_value=3)
    rows = np.array([[data.draw(ints) for _ in range(n)] for _ in range(m)], float)
    offs = np.array([data.draw(ints) for _ in range(m)], float)
    # normalize nonzero rows so the LP slack is scale-free
    keep = np.linalg.norm(rows, axis=1) > 0
    rows[keep] /= np.linalg.norm(rows[keep], axis=1, keepdims=True)
    feasible, witness = exact_strictly_feasible(rows, offs)
    if feasible:
        w = np.array([float(v) for v in witness])
        assert (rows @ w < offs + 1e-12).all()
    else:
        from pwlregions.regions import _max_slack_lp

        x, t = _max_slack_lp(rows, offs)
        assert x is None or t <= 1e-9
