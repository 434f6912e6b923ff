"""Local affine maps of single units, and the identified-pair probe."""

import numpy as np
import pytest

from pwlregions.constructions import (
    build_abs_net,
    sawtooth_network,
    sawtooth_with_threshold,
)
from pwlregions.linmap import (
    IdentificationError,
    _checked_point,
    boundary_clearance,
    enumerate_unit_pieces,
    find_identified_pair,
    finite_difference_gradient,
    output_values,
    region_map,
    unit_activation,
    unit_linear_map,
)
from pwlregions.network import (
    ACT_RECTIFIER,
    AffineMap,
    Layer,
    Network,
    forward,
    maxout,
    pattern_affine,
    pattern_at,
)
from pwlregions.regions import FeasibilityConfig, enumerate_regions


def random_net(seed=0, widths=(3, 3), rank=1):
    rng = np.random.default_rng(seed)
    act = ACT_RECTIFIER if rank == 1 else maxout(rank)
    layers = []
    fan = 2
    for w in widths:
        layers.append(Layer(rng.normal(size=(rank * w, fan)), rng.normal(size=rank * w), act))
        fan = w
    return Network(2, tuple(layers))


def test_unit_map_matches_finite_differences():
    net = random_net(2)
    rng = np.random.default_rng(3)
    checked = 0
    for x in rng.uniform(-2, 2, size=(60, 2)):
        if boundary_clearance(net, x) < 1e-4:
            continue
        checked += 1
        for layer in range(net.depth):
            for unit in range(net.layers[layer].width):
                m = unit_linear_map(net, layer, unit, x)
                fd = finite_difference_gradient(net, layer, unit, x)
                assert np.max(np.abs(m.matrix[0] - fd)) < 1e-6
                got = float(m.matrix[0] @ x + m.offset[0])
                assert abs(got - unit_activation(net, layer, unit, x)) < 1e-9
    assert checked > 30


@pytest.mark.parametrize("exact", [False, True], ids=["float", "exact"])
@pytest.mark.parametrize("seed, widths, rank, half", [
    pytest.param(5, (4,), 1, 2, id="rect-4"),
    pytest.param(6, (5, 4), 1, 4, id="rect-5-4"),
    pytest.param(7, (4, 4, 4), 1, 4, id="rect-4-4-4"),
    pytest.param(8, (4, 4), 2, 4, id="maxout2-4-4"),
    pytest.param(9, (3, 3, 3), 2, 4, id="maxout2-3-3-3"),
    pytest.param(10, (3, 3), 3, 4, id="maxout3-3-3"),
    pytest.param(11, (3, 3, 3), 3, 4, id="maxout3-3-3-3"),
])
def test_unit_map_rows_equal_region_affine(seed, widths, rank, half, exact):
    """A region's affine map is ``pattern_affine`` of its pattern, and a
    last-layer unit's map at the region's witness is one row of it, bit
    for bit, wherever the witness has the region's pattern."""
    net = random_net(seed, widths, rank)
    rs = enumerate_regions(net, FeasibilityConfig(box_halfwidth=half, exact_rational=exact))
    checked = 0
    for region in rs.regions:
        if pattern_at(net, region.witness) != region.pattern:
            continue
        checked += 1
        full = pattern_affine(net, region.pattern)
        assert full.matrix.tobytes() == region.affine.matrix.tobytes()
        assert full.offset.tobytes() == region.affine.offset.tobytes()
        for unit in range(widths[-1]):
            m = unit_linear_map(net, net.depth - 1, unit, region.witness)
            assert m.matrix.tobytes() == region.affine.matrix[unit].tobytes()
            assert m.offset.tobytes() == region.affine.offset[unit:unit + 1].tobytes()
    assert checked > rs.count // 2


def test_boundary_clearance_geometry():
    net = build_abs_net().network
    assert boundary_clearance(net, np.array([0.3, 0.4])) == pytest.approx(0.3)
    assert boundary_clearance(net, np.array([1e-9, 0.5])) < 1e-8


def _reference_clearance(net, x):
    """min over units of |z| / |g|, with the input-space row g and value z
    of each unit (each branch difference, for maxout) taken from the
    pattern-fixed maps of the layers below."""
    pattern = pattern_at(net, x)
    best = np.inf
    for i, layer in enumerate(net.layers):
        below = pattern_affine(net, pattern[:i])
        rows = [(layer.weights[r] @ below.matrix, layer.weights[r] @ below.offset + layer.bias[r])
                for r in range(layer.weights.shape[0])]
        k = layer.activation.rank
        if k == 1:
            pairs = rows
        else:
            pairs = []
            for j, t in enumerate(pattern[i]):
                gt, zt = rows[j * k + t]
                pairs += [(gt - g, zt - z) for g, z in rows[j * k:(j + 1) * k]]
        for g, z in pairs:
            if np.linalg.norm(g) > 1e-12:
                best = min(best, abs(float(g @ x + z)) / float(np.linalg.norm(g)))
    return best


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("net, x, want, norms", [
    (Network(1, (Layer([[1e160]], [0.0]),)), [0.3], 0.3, [1e160]),
    # z = 1e100*x0 + x0 + x1 + 5 in layer 1: its boundary is x0 = -5e-100, 0.3 away
    (Network(2, (Layer([[1e200, 0.0], [1.0, 1.0]], [0.0, 5.0]), Layer([[1e-100, 1.0]], [0.0]))),
     [0.3, 0.1], 0.3, [1e200, np.sqrt(2.0)]),
    (Network(1, (Layer([[1e160], [1.0], [-1e160]], [0.0, 0.0, 1.0], maxout(3)),)), [0.3], 0.3,
     [1e160, 1.0, 1e160]),
], ids=["rectifier", "two-layers", "maxout3"])
def test_a_row_whose_squares_overflow_gives_the_true_clearance(net, x, want, norms):
    # a row norm above ~1.34e154 squared to inf: the clearance was 0.0, with a warning
    assert boundary_clearance(net, x) == pytest.approx(want, rel=1e-12)
    assert net.layers[0]._row_norms.tolist() == norms  # the finite rows keep their bits


def test_a_deeper_row_whose_squares_overflow_gives_the_true_clearance():
    # input-space row 1e200 in layer 1, summed per point: found from the result
    net = Network(1, (Layer([[1e100]], [0.0]), Layer([[1e100]], [-2e199])))
    with np.errstate(over="ignore"):
        assert boundary_clearance(net, [0.3]) == pytest.approx(0.1, rel=1e-12)
        assert boundary_clearance(net, [0.2]) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("act", [ACT_RECTIFIER, maxout(2), maxout(3)])
def test_boundary_clearance_matches_reference(act):
    rng = np.random.default_rng(11)
    layers, fan = [], 2
    for w in (4, 3, 3):
        layers.append(Layer(rng.normal(size=(w * act.rank, fan)),
                            rng.normal(size=w * act.rank), act))
        fan = w
    net = Network(2, tuple(layers))
    for x in rng.uniform(-3, 3, size=(40, 2)):
        assert boundary_clearance(net, x) == pytest.approx(_reference_clearance(net, x),
                                                           rel=1e-9, abs=1e-12)


def test_readout_linear_map():
    con = sawtooth_network(3)
    x = np.array([1.4])
    _, full = region_map(con.network, x, con.readout)
    assert np.allclose(full(x), con.value(x))
    assert full.matrix[0, 0] == pytest.approx(-1.0)  # descending piece


@pytest.mark.parametrize("build", [
    build_abs_net,
    lambda: sawtooth_network(3),
    lambda: sawtooth_network(4, n0=2, coordinate=1),
], ids=["abs", "sawtooth", "sawtooth-2d"])
def test_output_values_batch_stacks_the_point_calls(build):
    con = build()
    X = np.random.default_rng(11).uniform(-2.0, 5.0, size=(60, con.network.input_dim))
    for readout in (None, con.readout):
        batch = output_values(con.network, X, readout)
        assert np.array_equal(batch, [output_values(con.network, x, readout) for x in X])
    assert np.array_equal(con.value(X), [con.value(x) for x in X])


def test_output_values_batch_on_a_random_net_is_close():
    # matrix-matrix products round differently from one point's in the last bits
    net = random_net(5, (4, 3))
    rng = np.random.default_rng(5)
    readout = AffineMap(rng.normal(size=(2, 3)), rng.normal(size=2))
    X = rng.uniform(-3.0, 3.0, size=(80, 2))
    for r in (None, readout):
        batch = output_values(net, X, r)
        stacked = np.array([output_values(net, x, r) for x in X])
        assert batch.shape == stacked.shape
        assert np.allclose(batch, stacked, rtol=1e-12, atol=1e-12)


def test_enumerate_unit_pieces_raw_unit():
    con = sawtooth_network(3)
    samples = np.linspace(-0.5, 3.5, 41)[:, None]
    pieces = enumerate_unit_pieces(con.network, 0, 1, samples)
    # unit 1 is max{0, 2x - 2}: active on x > 1 with a single slope
    assert len(pieces) == 1
    assert pieces[0].map.matrix[0, 0] == pytest.approx(2.0)
    assert pieces[0].activation > 0


def test_enumerate_unit_pieces_with_readout():
    con = sawtooth_network(3)
    samples = np.linspace(0.1, 2.9, 29)[:, None]
    pieces = enumerate_unit_pieces(con.network, 0, 0, samples, readout=con.readout)
    slopes = sorted(round(float(p.map.matrix[0, 0]), 6) for p in pieces)
    assert slopes == [-1.0, 1.0, 1.0]
    offsets = {round(float(p.map.offset[0]), 6) for p in pieces}
    assert offsets == {0.0, 2.0, -2.0}


def test_identified_pair_exact_step():
    con = build_abs_net()
    pair = find_identified_pair(con.network, 0, 0, [0.7, 0.2], [-0.9, 0.2],
                                readout=con.readout)
    assert not pair.same_region
    assert np.allclose(pair.point, [-0.7, 0.2], atol=1e-12)
    assert np.allclose(pair.map1.matrix, [[1.0, 0.0]])
    assert np.allclose(pair.map2.matrix, [[-1.0, 0.0]])


def test_identified_pair_same_region_short_circuit():
    con = build_abs_net()
    pair = find_identified_pair(con.network, 0, 0, [0.7, 0.2], [0.4, 0.6],
                                readout=con.readout)
    assert pair.same_region
    assert np.allclose(pair.point, [0.4, 0.6])


def test_identified_pair_requires_active_unit():
    con = build_abs_net()
    with pytest.raises(ValueError):
        find_identified_pair(con.network, 0, 0, [-0.5, 0.2], [0.7, 0.2])


def test_a_nan_value_is_not_positive():
    # for x > 1 both first-layer units overflow to inf, and the second
    # layer's unit is inf - inf = NaN: it gave a piece with activation NaN
    # and the zero map, and a pair with same_region=True
    net = Network(1, (Layer([[1e308], [1e308]], [0, 0]), Layer([[1, -1]], [0])))
    with np.errstate(over="ignore", invalid="ignore"):
        assert enumerate_unit_pieces(net, 1, 0, [[10.0], [-1.0]]) == []
        with pytest.raises(ValueError, match="unit must be active"):
            find_identified_pair(net, 1, 0, [10.0], [3.0])


def test_identified_pair_detects_boundary_crossing():
    # adjusting from 0.8 toward the value 0.7 target means walking to 1.2,
    # but the fold flips direction at 1.0 first
    con = sawtooth_with_threshold(3, 0.5)
    with pytest.raises(IdentificationError):
        find_identified_pair(con.network, 1, 0, [3.2], [0.8])


def test_unit_activation_consistency():
    net = random_net(9)
    x = np.array([0.4, -1.1])
    acts = forward(net, x)
    for layer in range(net.depth):
        for unit in range(net.layers[layer].width):
            assert unit_activation(net, layer, unit, x) == acts[layer][unit]


@pytest.mark.parametrize("fn", [unit_activation, finite_difference_gradient])
@pytest.mark.parametrize("layer, unit", [(-1, 0), (0, -1), (1, 0), (0, 4)])
def test_unit_indices_out_of_range(fn, layer, unit):
    # negative indices must not wrap around to the last layer or unit
    with pytest.raises(IndexError):
        fn(build_abs_net().network, layer, unit, np.array([0.3, -0.2]))


@pytest.mark.parametrize("unit", [-1, 2])
def test_readout_rows_out_of_range(unit):
    # with a readout the unit indexes its rows; a negative one must not
    # wrap around to the last row
    net = build_abs_net().network
    readout = AffineMap(np.array([[1.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 1.0]]), np.zeros(2))
    with pytest.raises(IndexError, match=f"readout row {unit} out of range"):
        enumerate_unit_pieces(net, 0, unit, [[0.5, 0.5], [-0.5, 0.5]], readout=readout)
    with pytest.raises(IndexError, match=f"readout row {unit} out of range"):
        find_identified_pair(net, 0, unit, [0.7, 0.2], [-0.9, 0.2], readout=readout)


# ---------------------------------------------------------------------------
# every entry point checks its point

POINT_CALLS = {
    "unit_linear_map": lambda net, x: unit_linear_map(net, 1, 0, x),
    "unit_activation": lambda net, x: unit_activation(net, 1, 0, x),
    "boundary_clearance": boundary_clearance,
    "finite_difference_gradient": lambda net, x: finite_difference_gradient(net, 1, 0, x),
    "find_identified_pair-x1": lambda net, x: find_identified_pair(net, 1, 0, x, [0.5, 0.5]),
    "find_identified_pair-x2": lambda net, x: find_identified_pair(net, 1, 0, [0.5, 0.5], x),
}
BAD_POINTS = {
    "row": [[0.3, -0.2]],                 # shape (1, 2)
    "short": [0.3],
    "long": [0.3, -0.2, 0.1],
    "scalar": 0.3,
    "nan": [np.nan, 0.0],
    "inf": [0.3, -np.inf],
}


@pytest.mark.parametrize("bad", BAD_POINTS.values(), ids=list(BAD_POINTS))
@pytest.mark.parametrize("call", POINT_CALLS.values(), ids=list(POINT_CALLS))
def test_a_point_that_is_not_one_finite_n0_vector_is_refused(call, bad):
    # a (1, 2) point gave a map of shape (1, 3, 2), a NaN point an infinite
    # clearance and a zero map, a wrong length numpy's matmul message
    with pytest.raises(ValueError, match=r"must be a finite point of shape \(2,\)"):
        call(random_net(3), bad)


def _earlier_checked_point(net, x, name="x"):
    x = np.asarray(x, float)
    want = f"{name} must be a finite point of shape ({net.input_dim},)"
    if x.shape != (net.input_dim,):
        raise ValueError(f"{want}, got shape {x.shape}")
    if not np.isfinite(x).all():
        raise ValueError(f"{want}, got {x.tolist()}")
    return x


def _checked(check, *args):
    try:
        return check(*args).tobytes()
    except ValueError as exc:
        return str(exc)


CHECKED_POINTS = [[0.3, -0.2], [1, 2], [-0.0, 0.0], [[0.3, -0.2]], [[1, 2]], [0.3], [1, 2, 3],
                  0.3, 7, [], [[0.0], [0.0]], [1e308, -1e308]] + [
    [v if i == at else 0.5 for i in range(2)] for v in (np.nan, np.inf, -np.inf) for at in (0, 1)]


@pytest.mark.parametrize("x", CHECKED_POINTS, ids=[repr(x) for x in CHECKED_POINTS])
@pytest.mark.parametrize("name", ["x", "x2"])
def test_the_point_check_accepts_and_words_as_the_earlier_one(x, name):
    net = random_net(3)
    assert _checked(_checked_point, net, x, name) == _checked(_earlier_checked_point, net, x, name)


@pytest.mark.parametrize("bad", [[np.nan, 0.5], [0.5, np.inf], [-np.inf, np.nan]])
def test_a_non_finite_point_that_pattern_at_walked_raises_with_the_earlier_words(bad):
    net = random_net(3, rank=2)
    with np.errstate(invalid="ignore"):  # inf * 0 in the walk
        pattern_at(net, bad)
    with pytest.raises(ValueError) as exc:
        unit_linear_map(net, 0, 0, bad)
    assert str(exc.value) == _checked(_earlier_checked_point, net, bad)


BAD_SAMPLES = {
    "nan": [[0.5, 0.5], [np.nan, 0.5]],   # a NaN sample gave a piece with activation NaN
    "inf": [[np.inf, 0.5]],
    "columns": [[0.5, 0.5, 0.5]],
    "one-point": [0.5, 0.5],
    "three-d": np.zeros((2, 1, 2)),
}


@pytest.mark.parametrize("bad", BAD_SAMPLES.values(), ids=list(BAD_SAMPLES))
def test_samples_that_are_not_finite_m_by_n0_are_refused(bad):
    with pytest.raises(ValueError, match=r"samples must be finite and of shape \(m, 2\)"):
        enumerate_unit_pieces(build_abs_net().network, 0, 1, bad)


@pytest.mark.parametrize("empty", [[], np.zeros((0, 2)), np.zeros((0, 1))],
                         ids=["list", "m0", "m0-other-width"])
def test_an_empty_sample_set_has_no_pieces(empty):
    assert enumerate_unit_pieces(build_abs_net().network, 0, 1, empty) == []


@pytest.mark.parametrize("layer, unit, rows", [(7, 9, 0), (0, 4, 0), (7, 0, 2), (0, 2, 2)],
                         ids=["layer", "unit", "layer-with-readout", "readout-row"])
def test_an_empty_sample_set_does_not_hide_a_bad_index(layer, unit, rows):
    # each sample checked the index, so a set of none checked nothing
    readout = AffineMap(np.eye(4)[:rows], np.zeros(rows)) if rows else None
    with pytest.raises(IndexError, match="out of range"):
        enumerate_unit_pieces(build_abs_net().network, layer, unit, [], readout=readout)


BAD_TOLS = {"nan": np.nan, "negative": -1.0, "inf": np.inf, "minus-inf": -np.inf}


@pytest.mark.parametrize("tol", BAD_TOLS.values(), ids=list(BAD_TOLS))
def test_a_tolerance_that_is_not_finite_and_nonnegative_is_refused(tol):
    # a NaN tol merged the sawtooth readout's 3 pieces into 1, and a
    # negative target_tol failed every probe as "landed 0.000e+00 from it"
    con = sawtooth_network(3)
    samples = np.linspace(0.1, 2.9, 29)[:, None]
    with pytest.raises(ValueError, match=r"^tol must be finite and >= 0"):
        enumerate_unit_pieces(con.network, 0, 0, samples, readout=con.readout, tol=tol)
    abs_net = build_abs_net()
    with pytest.raises(ValueError, match=r"^target_tol must be finite and >= 0"):
        find_identified_pair(abs_net.network, 0, 0, [0.7, 0.2], [-0.9, 0.2],
                             target_tol=tol, readout=abs_net.readout)


def test_a_zero_tolerance_is_allowed():
    con = sawtooth_network(3)
    samples = np.linspace(0.1, 2.9, 29)[:, None]
    assert len(enumerate_unit_pieces(con.network, 0, 0, samples,
                                     readout=con.readout, tol=0.0)) == 3
    abs_net = build_abs_net()
    pair = find_identified_pair(abs_net.network, 0, 0, [0.7, 0.2], [-0.9, 0.2],
                                target_tol=0.0, readout=abs_net.readout)
    assert pair.point.tolist() == [-0.7, 0.2]
