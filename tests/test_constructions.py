"""Witness networks: every predicted count is re-derived by the enumerator."""

import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pwlregions import constructions
from pwlregions.constructions import (
    ConstructionError,
    build_abs_net,
    build_catalan_layer,
    build_folding_rectifier_net,
    build_maxout_cones,
    build_maxout_parallel,
    build_rank2_folding_maxout,
    build_rank2_maxout_as_rectifier,
    build_sawtooth_group,
    build_shi_layer,
    identification_check,
    mixing_coefficients,
    sawtooth_network,
    sawtooth_with_threshold,
)
from pwlregions.network import network_to_dict
from pwlregions.regions import FeasibilityConfig, count_regions, oracle_count_by_grid
from pwlregions.serialize import render_json


def counted(con, **cfg_kw):
    """Enumerate over the construction's own exactness box."""
    if con.spec.count_box is not None:
        cfg_kw.setdefault("box", con.spec.count_box)
    return count_regions(con.network, FeasibilityConfig(**cfg_kw))


# ---------------------------------------------------------------------------
# sawtooth

@pytest.mark.parametrize("p", [1, 2, 3, 5])
def test_sawtooth_counts(p):
    con = sawtooth_network(p)
    assert con.spec.predicted_count == p + 1
    assert counted(con) == p + 1


def test_sawtooth_group_shape():
    layer, mix = build_sawtooth_group(3, coordinate=1, n0=2)
    assert layer.width == 3
    assert mix.tolist() == [1.0, -1.0, 1.0]
    assert layer.weights[:, 0].tolist() == [0.0, 0.0, 0.0]


def test_sawtooth_readout_is_triangle_wave():
    con = sawtooth_network(4)
    for x, want in [(0.25, 0.25), (1.25, 0.75), (2.5, 0.5), (3.0, 1.0), (-2.0, 0.0)]:
        assert con.value(np.array([x]))[0] == pytest.approx(want, abs=1e-12)


def test_sawtooth_with_threshold():
    con = sawtooth_with_threshold(3, 0.5)
    assert con.spec.predicted_count == 7
    assert count_regions(con.network) == 7
    with pytest.raises(ValueError):
        sawtooth_with_threshold(3, 1.5)


def sawtooth_value(x: float, p: int) -> float:
    """Scalar folded value: alternating sum of the group's unit responses."""
    total = max(0.0, x)
    for t in range(2, p + 1):
        total += (-1.0) ** (t - 1) * max(0.0, 2.0 * x - 2.0 * (t - 1))
    return total


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=1, max_value=6),
       st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
def test_sawtooth_value_folds_every_piece_onto_unit_interval(p, frac):
    """On piece t the folded value retraces (0,1), alternating direction,
    and the network's readout computes the same value."""
    con = sawtooth_network(p)
    for t in range(p):
        x = t + frac
        want = frac if t % 2 == 0 else 1.0 - frac
        assert sawtooth_value(x, p) == pytest.approx(want, abs=1e-12)
        assert con.value(np.array([x]))[0] == pytest.approx(sawtooth_value(x, p), abs=1e-12)
    assert sawtooth_value(-frac, p) == 0.0
    assert con.value(np.array([-frac]))[0] == 0.0


# ---------------------------------------------------------------------------
# deep rectifier folding

def test_folding_1d_exact():
    con = build_folding_rectifier_net(1, (2, 2))
    assert con.spec.predicted_count == 6
    assert counted(con) == 6
    assert oracle_count_by_grid(con.network, con.spec.count_box, 2000) == 6


def test_folding_2d_regression():
    con = build_folding_rectifier_net(2, (4, 4))
    assert con.spec.predicted_count == 44
    assert counted(con) == 44


def test_folding_refined_beats_plain():
    refined = build_folding_rectifier_net(2, (5, 3))
    plain = build_folding_rectifier_net(2, (5, 3), refined=False)
    assert refined.spec.predicted_count == 42
    assert plain.spec.predicted_count == 28
    assert counted(refined) == 42
    assert counted(plain) == 28
    # the unrefined net parks its remainder unit: zero row, never active
    assert np.all(plain.network.layers[0].weights[-1] == 0.0)


def folding_reference_forward(stages, x) -> np.ndarray:
    """Evaluate a folding construction through explicit intermediary
    mixing steps (folded coordinates materialized between layers)
    instead of the absorbed weights."""
    u = np.asarray(x, float)
    for rows, bias, mix in stages:
        a = np.maximum(rows @ u + bias, 0.0)
        u = mix @ a if mix is not None else a
    return u


def test_folding_absorption_matches_staged_reference():
    """The shipped net absorbs the mixing matrices into the next layer's
    weights; evaluating the stages with explicit mixing must agree."""
    from pwlregions.network import forward

    con = build_folding_rectifier_net(2, (4, 4))
    rng = np.random.default_rng(5)
    for x in rng.uniform(-1.0, 3.0, size=(50, 2)):
        staged = folding_reference_forward(con.stages, x)
        absorbed = forward(con.network, x)[-1]
        assert np.max(np.abs(staged - absorbed)) < 1e-12


def test_folding_rejects_narrow_layers():
    with pytest.raises(ConstructionError):
        build_folding_rectifier_net(2, (1, 3))


def test_folding_single_layer_is_arrangement():
    con = build_folding_rectifier_net(2, (4,))
    assert con.spec.predicted_count == 11
    assert counted(con) == 11
    assert con.readout is None


def test_cube_arrangement_rejects_parallel_lines_by_count(monkeypatch):
    # two parallel lines cut the cube into 3 cells, not the 4 of general position
    parallel = np.array([[1.0, 0.0], [1.0, 0.0]]), np.array([0.3, 0.7])
    monkeypatch.setattr(constructions, "_draw_cube_hyperplanes", lambda n0, count, rng: parallel)
    with pytest.raises(ConstructionError, match="could not place 2 hyperplanes"):
        constructions._verified_cube_arrangement(2, 2, seed=0, attempts=3)


# SHA-256 of the network JSON, recorded while the cube draws were still
# screened by a rank test before they were counted
FOLDING_NET_SHA256 = {
    (1, (2, 3)): "b4215cc5dbe0506153f81392cc72966220a158f45d5529eebbe608e6f793058f",
    (2, (5, 3)): "83528715ecd13138db0af9aa4cc97513a48937cac3b2f9c0d40dd8351ee506a2",
    (3, (3, 4)): "93a562b6d97eab31a053f6689d07c4ac7b53cde32ea433db43cb8b644fc9465d",
}


@pytest.mark.parametrize("n0, widths", sorted(FOLDING_NET_SHA256), ids=str)
def test_folding_network_json_pinned(n0, widths):
    con = build_folding_rectifier_net(n0, widths)
    text = render_json(network_to_dict(con.network))
    assert hashlib.sha256(text.encode()).hexdigest() == FOLDING_NET_SHA256[n0, widths]


# ---------------------------------------------------------------------------
# classic exact layers

def test_abs_net_values_and_count():
    con = build_abs_net()
    assert np.allclose(con.value([0.3, -0.4]), [0.3, 0.4])
    assert counted(con) == 4


@pytest.mark.parametrize(
    "n,m,k,want", [(2, 2, 3, 9), (3, 2, 2, 4), (1, 3, 2, 2)]
)
def test_parallel_maxout_counts(n, m, k, want):
    con = build_maxout_parallel(n, m, k)
    assert con.spec.predicted_count == want
    assert counted(con) == want


def test_shi_and_catalan_counts():
    for n, want in [(2, 3), (3, 16)]:
        con = build_shi_layer(n)
        assert con.spec.predicted_count == want
        assert counted(con) == want
    for n, want in [(2, 4), (3, 30)]:
        con = build_catalan_layer(n)
        assert con.spec.predicted_count == want
        assert counted(con) == want


# ---------------------------------------------------------------------------
# maxout folding and the rectifier simulation

@pytest.mark.parametrize("n0,L", [(1, 2), (2, 2)])
def test_rank2_folding_counts(n0, L):
    con = build_rank2_folding_maxout(n0, L)
    assert counted(con) == 2 ** (n0 * L)


def test_rank2_simulation_agrees_everywhere_sampled():
    pair = build_rank2_maxout_as_rectifier(2, 2, seed=0, sample_count=500)
    assert pair.certificate <= 1e-9
    assert pair.sample_count == 500
    assert counted(pair.maxout) == counted(pair.rectifier) == 16
    x = np.array([0.37, -1.21])
    assert np.allclose(pair.maxout.value(x), pair.rectifier.value(x), atol=1e-9)


@pytest.mark.parametrize("sample_count", [1, 7, 1000])
@pytest.mark.parametrize("n0, L", [(1, 2), (2, 2), (3, 1), (2, 3)])
def test_rank2_certificate_matches_a_point_loop(n0, L, sample_count):
    for seed in range(8):
        pair = build_rank2_maxout_as_rectifier(n0, L, seed=seed, sample_count=sample_count)
        X = np.random.default_rng(seed).uniform(-2.0, 2.0, size=(sample_count, n0))
        worst = 0.0
        for x in X:
            diff = np.abs(pair.maxout.value(x) - pair.rectifier.value(x))
            worst = max(worst, float(np.max(diff)))
        assert repr(pair.certificate) == repr(worst)


def test_cones_rank2_delegates_to_folding():
    con = build_maxout_cones(2, 2, 2)
    assert con.spec.predicted_count == 8        # k^(L-1+n0)
    assert con.spec.params["true_count"] == 16  # what the folding net attains
    assert counted(con) == 16


def test_cones_rank3_meets_bound():
    con = build_maxout_cones(2, 2, 3)
    assert con.spec.predicted_count == 27
    assert not con.spec.exact
    assert counted(con) >= 27


def test_cones_parameter_errors():
    with pytest.raises(ConstructionError):
        build_maxout_cones(3, 2, 3)
    with pytest.raises(ConstructionError):
        build_maxout_cones(2, 2, 5)
    with pytest.raises(ValueError):
        build_maxout_cones(2, 0, 2)


# ---------------------------------------------------------------------------
# identification probe

def test_identification_abs_quadrants():
    con = build_abs_net()
    quadrants = [((0.1, 0.9), (0.1, 0.9)), ((-0.9, -0.1), (0.1, 0.9)),
                 ((0.1, 0.9), (-0.9, -0.1)), ((-0.9, -0.1), (-0.9, -0.1))]
    assert identification_check(con.network, quadrants, readout=con.readout)
    # without the folding readout the raw activations distinguish quadrants
    assert not identification_check(con.network, quadrants)


def test_identification_sawtooth_intervals():
    con = sawtooth_network(3)
    boxes = [((0.05, 0.95),), ((1.05, 1.95),), ((2.05, 2.95),)]
    assert identification_check(con.network, boxes, readout=con.readout)


def test_identification_rejects_same_region():
    con = build_abs_net()
    boxes = [((0.1, 0.2), (0.1, 0.2)), ((0.5, 0.6), (0.5, 0.6))]
    assert not identification_check(con.network, boxes, readout=con.readout)


def test_identification_needs_two_boxes():
    con = build_abs_net()
    with pytest.raises(ValueError):
        identification_check(con.network, [((0.0, 1.0), (0.0, 1.0))])


# ---------------------------------------------------------------------------
# spec records

def test_witness_spec_serializes():
    con = build_folding_rectifier_net(2, (4, 4))
    doc = con.spec.to_dict()
    json.dumps(doc)
    assert doc["kind"] == "FoldingRectifierNet"
    assert doc["exact"] is True
    assert doc["count_box"] == [[0.0, 2.0], [0.0, 2.0]]
