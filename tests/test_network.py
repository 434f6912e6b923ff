"""Model layer: construction, evaluation, patterns, serialization."""

import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pwlregions.network import (
    ACT_RECTIFIER,
    Activation,
    AffineMap,
    Layer,
    Network,
    NetworkFormatError,
    forward,
    load_network,
    maxout,
    maxout_structure,
    network_from_dict,
    network_to_dict,
    parameter_count,
    pattern_affine,
    pattern_at,
    pattern_code,
    pattern_matrix,
    rectifier_structure,
    save_network,
    structure_of,
)
from pwlregions.constructions import build_maxout_parallel
from pwlregions.linmap import boundary_clearance, unit_linear_map
from pwlregions.regions import oracle_count_by_grid


def networks_equal(a: Network, b: Network) -> bool:
    if a.input_dim != b.input_dim or a.depth != b.depth:
        return False
    for la, lb in zip(a.layers, b.layers):
        if la.activation != lb.activation:
            return False
        if la.weights.shape != lb.weights.shape:
            return False
        if not (la.weights == lb.weights).all() or not (la.bias == lb.bias).all():
            return False
    return True


def _random_net(rng, n0, widths, act=ACT_RECTIFIER):
    layers = []
    fan = n0
    for w in widths:
        rows = w * act.rank
        layers.append(Layer(rng.normal(size=(rows, fan)), rng.normal(size=rows), act))
        fan = w
    return Network(n0, tuple(layers))


def test_activation_validation():
    with pytest.raises(ValueError):
        maxout(1)
    with pytest.raises(ValueError):
        Layer(np.ones((2, 2)), np.zeros(3))
    with pytest.raises(ValueError):
        Layer(np.ones((3, 2)), np.zeros(3), maxout(2))  # 3 rows, rank 2
    with pytest.raises(ValueError):
        Layer(np.array([[np.inf, 0.0]]), np.zeros(1))


def test_activation_is_its_rank():
    assert ACT_RECTIFIER == Activation(1) and ACT_RECTIFIER.kind == "rectifier"
    assert maxout(3) == Activation(3) and maxout(3).kind == "maxout"
    for rank in (0, -1):  # no layer width can be read from such a rank
        with pytest.raises(ValueError, match="activation rank must be >= 1"):
            Activation(rank)


def test_network_fan_in_chain():
    l1 = Layer(np.ones((3, 2)), np.zeros(3))
    l2 = Layer(np.ones((2, 3)), np.zeros(2))
    Network(2, (l1, l2))
    with pytest.raises(ValueError):
        Network(2, (l2, l1))
    with pytest.raises(ValueError):
        Network(2, ())


def test_layer_arrays_frozen():
    layer = Layer(np.ones((2, 2)), np.zeros(2))
    with pytest.raises(ValueError):
        layer.weights[0, 0] = 5.0


def test_forward_and_pattern_small():
    # one rectifier on x, one on -x
    net = Network(1, (Layer(np.array([[1.0], [-1.0]]), np.zeros(2)),))
    assert forward(net, np.array([2.0]))[-1].tolist() == [2.0, 0.0]
    assert pattern_at(net, np.array([2.0])) == ((1, 0),)
    assert pattern_at(net, np.array([-3.0])) == ((0, 1),)
    # tie rule: pre-activation exactly 0 counts as inactive
    assert pattern_at(net, np.array([0.0])) == ((0, 0),)


def test_maxout_pattern_tie_breaks_low():
    # both branches equal at x = 0; argmax must take the lower index
    layer = Layer(np.array([[1.0], [-1.0]]), np.zeros(2), maxout(2))
    net = Network(1, (layer,))
    assert pattern_at(net, np.array([0.0])) == ((0,),)
    assert pattern_at(net, np.array([-1.0])) == ((1,),)


def test_pattern_matrix_agrees_with_pattern_at():
    rng = np.random.default_rng(7)
    net = _random_net(rng, 2, (3, 2))
    X = rng.normal(size=(40, 2))
    M = pattern_matrix(net, X)
    for row, x in zip(M, X):
        flat = [u for lay in pattern_at(net, x) for u in lay]
        assert row.tolist() == flat


@pytest.mark.parametrize("rank", [130, 300])
def test_maxout_states_hold_every_branch_index(rank):
    # unit breakpoints at x = 1 .. rank-1: x in (t, t+1) selects branch t,
    # past the 127 that a signed byte holds
    net = build_maxout_parallel(1, 1, rank).network
    x = np.array([rank - 1.5])
    assert pattern_at(net, x) == ((rank - 2,),)
    assert pattern_matrix(net, x[None, :]).tolist() == [[rank - 2]]
    assert unit_linear_map(net, 0, 0, x)(x) == forward(net, x)[0]
    assert boundary_clearance(net, x) == pytest.approx(0.5)
    assert oracle_count_by_grid(net, ((-1.0, rank + 1.0),), 20 * (rank + 2)) == rank


def test_states_stay_one_byte_where_a_byte_holds_them():
    rng = np.random.default_rng(3)
    for act in (ACT_RECTIFIER, maxout(2), maxout(128)):
        net = _random_net(rng, 2, (3,), act)
        assert pattern_matrix(net, rng.normal(size=(5, 2))).dtype == np.int8


def test_tie_rules_agree_between_point_and_batch():
    # layer 0: rectifiers on x, -x and y, each exactly 0 on an axis;
    # layer 1: rank-3 maxout units with branches (h0, h1, h0) and
    # (0, h2, -h2), which tie wherever their inputs are equal
    l0 = Layer(np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]]), np.zeros(3))
    l1 = Layer(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 0.0, 0.0],
                         [0.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, -1.0]]),
               np.zeros(6), maxout(3))
    net = Network(2, (l0, l1))
    cases = [
        ([0.0, 0.0], ((0, 0, 0), (0, 0))),    # every unit at an exact tie
        ([-0.0, 0.0], ((0, 0, 0), (0, 0))),
        ([0.0, 1.0], ((0, 0, 1), (0, 1))),
        ([1.0, 0.0], ((1, 0, 0), (0, 0))),    # branches 0 and 2 tie: lowest wins
        ([-1.0, 0.0], ((0, 1, 0), (1, 0))),
        ([0.0, -1.0], ((0, 0, 0), (0, 0))),
        ([2.0, 3.0], ((1, 0, 1), (0, 1))),
    ]
    X = np.array([x for x, _ in cases])
    M = pattern_matrix(net, X)
    for (x, want), row in zip(cases, M):
        assert pattern_at(net, np.array(x)) == want
        assert row.tolist() == [u for layer in want for u in layer]


def test_pattern_code_layout():
    assert pattern_code(((1, 0), (2,))) == "1,0|2"


def test_pattern_affine_reproduces_forward():
    rng = np.random.default_rng(3)
    net = _random_net(rng, 2, (4, 3, 2))
    for x in rng.normal(size=(25, 2)):
        aff = pattern_affine(net, pattern_at(net, x))
        assert np.allclose(aff(x), forward(net, x)[-1], atol=1e-12)


def test_pattern_affine_of_a_prefix():
    rng = np.random.default_rng(4)
    net = _random_net(rng, 2, (3, 3))
    x = np.array([0.3, -0.8])
    aff1 = pattern_affine(net, pattern_at(net, x)[:1])
    assert np.allclose(aff1(x), forward(net, x)[0])


def test_parameter_count_values():
    assert parameter_count(rectifier_structure(2, (4, 4))) == 32
    assert parameter_count(maxout_structure(2, (2,), 3)) == 18
    rng = np.random.default_rng(0)
    net = _random_net(rng, 2, (4, 4))
    assert parameter_count(net) == 32


def test_structure_of_roundtrip():
    rng = np.random.default_rng(1)
    net = _random_net(rng, 3, (2, 5), maxout(2))
    s = structure_of(net)
    assert s.input_dim == 3 and s.widths == (2, 5)
    assert all(act.rank == 2 for _, act in s.layers)


def test_affine_map_compose():
    f = AffineMap(np.array([[2.0, 0.0], [0.0, 1.0]]), np.array([1.0, 0.0]))
    g = AffineMap(np.array([[1.0, 1.0]]), np.array([-1.0]))
    x = np.array([0.5, 2.0])
    assert np.allclose(g.compose(f)(x), g(f(x)))


def test_save_load_roundtrip_file(tmp_path):
    rng = np.random.default_rng(11)
    net = _random_net(rng, 2, (3, 2))
    path = tmp_path / "net.json"
    save_network(net, str(path))
    assert networks_equal(net, load_network(str(path)))


def test_maxout_roundtrip_keeps_rank():
    rng = np.random.default_rng(12)
    net = _random_net(rng, 2, (2,), maxout(3))
    doc = network_to_dict(net)
    assert doc["layers"][0]["rank"] == 3
    back = network_from_dict(doc)
    assert back.layers[0].activation.rank == 3
    assert networks_equal(net, back)


@pytest.mark.parametrize(
    "mangle",
    [
        lambda d: d.pop("input_dim"),
        lambda d: d["layers"][0].pop("weights"),
        lambda d: d["layers"][0].__setitem__("activation", "tanh"),
        lambda d: d["layers"][0].__setitem__("bias", [0.0]),
        lambda d: d.__setitem__("layers", []),
    ],
)
def test_format_errors(mangle):
    rng = np.random.default_rng(13)
    doc = network_to_dict(_random_net(rng, 2, (2,)))
    mangle(doc)
    with pytest.raises(NetworkFormatError):
        network_from_dict(doc)


@pytest.mark.parametrize("number", ["NaN", "Infinity", "-Infinity", "1e400", "1" + "0" * 400,
                                    "-" + "9" * 320, "1" + "0" * 5000, "-" + "9" * 5001],
                         ids=["nan", "inf", "-inf", "1e400", "10**400", "-(10**320-1)",
                              "10**5000", "-(10**5001-1)"])
@pytest.mark.parametrize("field, where", [
    ('"weights": [[0.5, %s]], "bias": [0]', "layer 0: weights row 0: entry 1"),
    ('"weights": [[0.5, 1]], "bias": [%s]', "layer 0: bias: entry 0"),
], ids=["weights", "bias"])
def test_numbers_a_float_cannot_hold_name_their_field(number, field, where):
    text = ('{"input_dim": 2, "layers": [{"activation": "rectifier", "width": 1, '
            + field % number + '}]}')
    with pytest.raises(NetworkFormatError) as exc:
        load_network(io.StringIO(text))
    assert str(exc.value) == f"{where} is not a finite float"


FREEZE_INPUTS = {
    "float32": (np.arange(6, dtype=np.float32).reshape(2, 3) / 3, np.float32([0.5, -1.5])),
    "non-contiguous": (np.arange(24.0).reshape(4, 6)[::2, ::3], np.arange(6.0)[::3]),
    "fortran": (np.asfortranarray(np.arange(6.0).reshape(2, 3) - 2.5), np.array([1.0, 2.0])),
    "scalar": (np.float64(2.5), 0.5),
    "zero-d-array": (np.array(-1.25), np.array(3.0)),
    "one-row": (np.array([0.5, -0.5]), np.array([1.0])),
    "int-lists": ([[1, 2], [3, 4]], [5, 6]),
}


@pytest.mark.parametrize("matrix, offset", FREEZE_INPUTS.values(), ids=FREEZE_INPUTS.keys())
def test_frozen_arrays_are_read_only_c_contiguous_float64(matrix, offset):
    # the earlier freeze: atleast_2d / atleast_1d, then asarray and ascontiguousarray
    want = (np.ascontiguousarray(np.asarray(np.atleast_2d(matrix), float)),
            np.ascontiguousarray(np.asarray(np.atleast_1d(offset), float)))
    m, layer = AffineMap(matrix, offset), Layer(matrix, offset)
    for got in ((m.matrix, m.offset), (layer.weights, layer.bias)):
        for g, w in zip(got, want):
            assert g.dtype == np.float64 and g.shape == w.shape
            assert g.flags.c_contiguous and not g.flags.writeable
            assert g.tobytes() == w.tobytes()


def test_a_read_only_float64_c_array_is_not_copied():
    matrix, offset = np.arange(6.0).reshape(2, 3), np.array([1.0, 2.0])
    matrix.flags.writeable = offset.flags.writeable = False
    m, layer = AffineMap(matrix, offset), Layer(matrix, offset)
    assert m.matrix is matrix and m.offset is offset
    assert layer.weights is matrix and layer.bias is offset


@pytest.mark.parametrize("view", [False, True], ids=["own", "view"])
def test_a_writeable_array_is_copied_and_stays_writeable(view):
    if view:  # C-contiguous float64 views of the caller's memory
        base = np.arange(8.0).reshape(2, 4)
        matrix, offset = base[:1], base[1, :1]
    else:
        matrix, offset = np.arange(6.0).reshape(2, 3), np.array([1.0, 2.0])
    m, layer = AffineMap(matrix, offset), Layer(matrix, offset)
    for frozen, a in ((m.matrix, matrix), (m.offset, offset),
                      (layer.weights, matrix), (layer.bias, offset)):
        assert not np.shares_memory(frozen, a) and not frozen.flags.writeable
        assert frozen.tobytes() == a.tobytes()
    before = m.matrix[0, 0], m.offset[0]
    matrix[0, 0], offset[0] = 10.0, 20.0  # the caller's arrays stay writeable
    assert (m.matrix[0, 0], m.offset[0]) == (layer.weights[0, 0], layer.bias[0]) == before


@pytest.mark.parametrize("field, where, what", [
    ('"input_dim": %s, "layers": [{"activation": "rectifier", "width": 1, '
     '"weights": [[1]], "bias": [0]}]', "input_dim", "expected a positive integer"),
    ('"input_dim": 1, "layers": [{"activation": "rectifier", "width": %s, '
     '"weights": [[1]], "bias": [0]}]', "layer 0", "width must be a positive integer"),
    ('"input_dim": 1, "layers": [{"activation": "maxout", "rank": %s, "width": 1, '
     '"weights": [[1], [1]], "bias": [0, 0]}]', "layer 0", "rank must be an integer >= 2"),
], ids=["input_dim", "width", "rank"])
def test_integers_beyond_the_digit_limit_name_their_field(field, where, what):
    # json.loads alone raises a plain ValueError for more than 4300 digits
    text = "{" + field % ("1" + "0" * 5000) + "}"
    with pytest.raises(NetworkFormatError) as exc:
        load_network(io.StringIO(text))
    assert str(exc.value) == f"{where}: {what}"


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=1, max_value=3),
    st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=3),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_serialization_roundtrip_property(n0, widths, seed):
    rng = np.random.default_rng(seed)
    net = _random_net(rng, n0, tuple(widths))
    buf = io.StringIO()
    save_network(net, buf)
    buf.seek(0)
    assert networks_equal(net, load_network(buf))
