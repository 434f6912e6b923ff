"""The probe layer walks each point through the net once, and its results
are bit for bit those of the earlier functions that walked it up to three
times and composed every layer's map from the input again."""

import itertools

import numpy as np
import pytest

from pwlregions import linmap, network
from pwlregions.constructions import build_abs_net, identification_check, sawtooth_network
from pwlregions.linmap import (
    IdentificationError,
    IdentifiedPair,
    UnitPiece,
    _check_unit,
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
    layer_selection,
    maxout,
    pattern_at,
)

QUADRANTS = [((0.1, 0.9), (0.1, 0.9)), ((-0.9, -0.1), (0.1, 0.9)),
             ((0.1, 0.9), (-0.9, -0.1)), ((-0.9, -0.1), (-0.9, -0.1))]


# ---------------------------------------------------------------------------
# walk counts

@pytest.fixture()
def walks(monkeypatch):
    """Count the layer walks, as ``network`` and ``linmap`` see ``_walk``;
    ``walks[1]`` lists what each walked, as float arrays."""
    count = [0, []]
    inner = network._walk

    def counted(net, X, *args, **kwargs):
        count[0] += 1
        count[1].append(np.array(X, float))
        return inner(net, X, *args, **kwargs)

    monkeypatch.setattr(network, "_walk", counted)
    monkeypatch.setattr(linmap, "_walk", counted)
    return count


def test_identified_pair_walks_each_point_once(walks):
    con = build_abs_net()
    pair = find_identified_pair(con.network, 0, 0, [0.7, 0.2], [-0.9, 0.2],
                                readout=con.readout)
    assert not pair.same_region
    assert walks[0] == 3  # x1, x2 and the adjusted point


def test_unit_pieces_walk_each_sample_once(walks):
    con = build_abs_net()
    samples = np.random.default_rng(0).uniform(-1.0, 1.0, size=(50, 2))
    assert enumerate_unit_pieces(con.network, 0, 0, samples, readout=con.readout)
    assert walks[0] == 1  # was 50: one stack of every sample, in order
    (stack,) = walks[1]
    assert stack.shape == (50, 2, 1)
    assert stack[..., 0].tobytes() == samples.tobytes()


def test_identification_check_walks_each_counterpart_once(walks):
    con = build_abs_net()
    assert identification_check(con.network, QUADRANTS, probe_count=20, readout=con.readout)
    # box centers, the probes as one batch, then each other box's counterparts
    # as one batch for their patterns and one for their outputs
    assert walks[0] == 4 + 1 + 2 * 3


def test_pair_and_box_probes_read_the_walk_and_compose_nothing_again(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("pattern_affine called")

    monkeypatch.setattr(network, "pattern_affine", refuse)
    monkeypatch.setattr(linmap, "pattern_affine", refuse)
    con = build_abs_net()
    for x2 in ([-0.9, 0.2], [0.5, -0.4], [0.6, 0.3]):  # x1's own region last
        find_identified_pair(con.network, 0, 0, [0.7, 0.2], x2, readout=con.readout)
        find_identified_pair(con.network, 0, 0, [0.7, 0.2], abs(np.array(x2)))
    assert identification_check(con.network, QUADRANTS, probe_count=20, readout=con.readout)


def test_boundary_clearance_composes_as_it_walks(walks, monkeypatch):
    calls = [0]
    inner = linmap.pattern_affine

    def counted(*args, **kwargs):
        calls[0] += 1
        return inner(*args, **kwargs)

    monkeypatch.setattr(linmap, "pattern_affine", counted)
    net = _random_net(np.random.default_rng(1), ACT_RECTIFIER, (3, 3, 3))
    boundary_clearance(net, np.array([0.3, -0.4]))
    assert calls[0] == 0
    assert walks[0] == 1


def test_every_unit_map_and_activation_and_the_clearance_cost_one_walk(walks):
    # 2*U + 1 walks before the walk composed and kept the point's layer maps
    net = _random_net(np.random.default_rng(2), ACT_RECTIFIER, (4, 3, 2))
    x = np.array([0.4, -0.7])
    for layer in range(net.depth):
        for unit in range(net.layers[layer].width):
            unit_linear_map(net, layer, unit, x)
            unit_activation(net, layer, unit, x)
    boundary_clearance(net, x)
    assert walks[0] == 1


@pytest.fixture()
def steps(monkeypatch):
    """Count the layer steps of the probe walk."""
    count = [0]
    inner = network._layer_step

    def counted(*args, **kwargs):
        count[0] += 1
        return inner(*args, **kwargs)

    monkeypatch.setattr(linmap, "_layer_step", counted)
    return count


def _adjusted_pairs(net, layer, readout):
    """Point pairs in two regions whose second point the pair probe adjusts."""
    rng = np.random.default_rng(11)
    while True:
        x1, x2 = rng.uniform(-2.0, 2.0, size=(2, net.input_dim))
        want = _outcome(ref_find_identified_pair, net, layer, 0, x1, x2, readout=readout)
        if isinstance(want, IdentifiedPair) and not want.same_region:
            yield x1, x2, want


@pytest.mark.parametrize("name", ["abs", "rectifier", "maxout3"])
def test_identified_pair_composes_no_map_for_the_adjusted_point(steps, name):
    if name == "abs":
        con = build_abs_net()
        net, layer, readout = con.network, 0, con.readout
    else:
        net = _random_net(np.random.default_rng(12), ACTS[name], (3, 3, 2))
        layer, readout = 1, None
    for x1, x2, want in itertools.islice(_adjusted_pairs(net, layer, readout), 5):
        steps[0] = 0
        got = find_identified_pair(net, layer, 0, x1, x2, readout=readout)
        assert steps[0] == 2 * net.depth  # x1 and x2; was 3 * depth
        assert not got.same_region
        assert got.point.tobytes() == want.point.tobytes()
        for g, w in ((got.map1, want.map1), (got.map2, want.map2)):
            assert (g.matrix.tobytes(), g.offset.tobytes()) == \
                (w.matrix.tobytes(), w.offset.tobytes())


def test_unit_maps_compose_each_layer_once(steps):
    net = _random_net(np.random.default_rng(3), ACT_RECTIFIER, (8, 8))
    x = np.array([1.2, -0.3])
    for layer in range(net.depth):
        for unit in range(net.layers[layer].width):
            unit_linear_map(net, layer, unit, x)
    assert steps[0] == net.depth


# ---------------------------------------------------------------------------
# the kept layer maps of the last point

def test_the_kept_points_bytes_in_another_shape_are_refused_after_a_hit(walks):
    net = _random_net(np.random.default_rng(8), ACT_RECTIFIER, (3, 3))
    x = np.array([0.3, -0.6])
    unit_linear_map(net, 0, 0, x)
    unit_linear_map(net, 0, 1, x)  # a hit
    assert walks[0] == 1
    for call in (lambda y: unit_linear_map(net, 0, 0, y), lambda y: unit_activation(net, 0, 0, y),
                 lambda y: boundary_clearance(net, y), lambda y: region_map(net, y)):
        with pytest.raises(ValueError, match=r"x must be a finite point of shape \(2,\), "
                                             r"got shape \(1, 2\)"):
            call(x.reshape(1, 2))
    assert walks[0] == 1


def test_an_integer_list_equal_to_the_kept_point_hits(walks):
    net = _random_net(np.random.default_rng(9), maxout(2), (3, 2))
    x = np.array([2.0, -1.0])
    want = _reference_results(net, x)
    walks[0] = 0
    assert _all_unit_results(net, x) == want
    assert _all_unit_results(net, [2, -1]) == want
    assert _all_unit_results(net, np.array([2, -1], np.float32)) == want
    assert walks[0] == 1


def test_maps_are_read_only_views_that_outlive_the_next_walk():
    net = _random_net(np.random.default_rng(10), ACT_RECTIFIER, (3, 3, 3))
    x, y = np.array([0.5, 0.1]), np.array([-0.4, 0.8])
    maps = [unit_linear_map(net, 1, unit, x) for unit in range(3)]
    # rows of the kept map of layer 1, not copies, and that map is read-only
    assert maps[0].matrix.base is maps[1].matrix.base is maps[2].matrix.base
    maps.append(region_map(net, x)[1])
    for m in maps:
        for a in (m.matrix, m.offset):
            with pytest.raises(ValueError):
                a.flags.writeable = True
            with pytest.raises(ValueError):
                a[0] = 1.0
    before = [(m.matrix.tobytes(), m.offset.tobytes()) for m in maps]
    unit_linear_map(net, 1, 0, y)  # walks y, and replaces x's entry
    assert [(m.matrix.tobytes(), m.offset.tobytes()) for m in maps] == before
    assert all(_same_map(m, ref_unit_linear_map(net, 1, unit, x))
               for unit, m in enumerate(maps[:3]))
    assert _same_map(maps[3], ref_output_map(net, pattern_at(net, x)))


def _all_unit_results(net, x):
    """Every unit's map and activation and the clearance at x, as bytes."""
    maps = [unit_linear_map(net, layer, unit, x)
            for layer in range(net.depth) for unit in range(net.layers[layer].width)]
    acts = [unit_activation(net, layer, unit, x)
            for layer in range(net.depth) for unit in range(net.layers[layer].width)]
    return ([(m.matrix.tobytes(), m.offset.tobytes()) for m in maps],
            np.array(acts).tobytes(), np.float64(boundary_clearance(net, x)).tobytes())


def _reference_results(net, x):
    x = np.array(x, float)  # a copy: the reference must not see later mutations
    maps = [ref_unit_linear_map(net, layer, unit, x)
            for layer in range(net.depth) for unit in range(net.layers[layer].width)]
    acts = np.concatenate(forward(net, x))
    return ([(m.matrix.tobytes(), m.offset.tobytes()) for m in maps],
            acts.tobytes(), np.float64(ref_boundary_clearance(net, x)).tobytes())


def test_a_point_mutated_in_place_is_walked_again(walks):
    net = _random_net(np.random.default_rng(4), maxout(2), (3, 3))
    x = np.array([0.25, -1.5])
    for coordinate in (None, -2.0):
        if coordinate is not None:
            x[0] = coordinate  # the same object with other bytes
        want = _reference_results(net, x)
        walks[0] = 0
        assert _all_unit_results(net, x) == want
        assert walks[0] == 1
    assert want != _reference_results(net, [0.25, -1.5])


def test_two_nets_of_one_shape_called_alternately_at_one_point(walks):
    rng = np.random.default_rng(5)
    nets = [_random_net(rng, ACT_RECTIFIER, (3, 4)) for _ in range(2)]
    x = np.array([0.6, 0.1])
    want = [_reference_results(net, x) for net in nets]
    assert want[0] != want[1]
    walks[0] = 0
    for _ in range(3):
        for net, w in zip(nets, want):
            assert _all_unit_results(net, x) == w
    assert walks[0] == 6  # every switch of net is a miss


def test_finite_differences_leave_the_kept_point(walks):
    net = _random_net(np.random.default_rng(6), maxout(3), (3, 2))
    x = np.array([-0.8, 0.9])
    want = _reference_results(net, x)
    walks[0] = 0
    m = unit_linear_map(net, 1, 0, x)
    grad = finite_difference_gradient(net, 1, 0, x)
    assert walks[0] == 2  # x, then one stack of its 2*n0 shifted points; was 1 + 2*n0
    assert walks[1][-1].shape == (2 * net.input_dim, net.input_dim, 1)
    assert np.max(np.abs(grad - m.matrix[0])) < 1e-6
    assert _all_unit_results(net, x) == want
    assert walks[0] == 2


def test_negative_zero_is_another_point(walks):
    net = _random_net(np.random.default_rng(7), ACT_RECTIFIER, (3, 3))
    plus, minus = np.array([0.0, 0.4]), np.array([-0.0, 0.4])
    want = {x.tobytes(): _reference_results(net, x) for x in (plus, minus)}
    walks[0] = 0
    for x in (plus, minus, plus):
        assert _all_unit_results(net, x) == want[x.tobytes()]
    assert walks[0] == 3  # equal values, other bytes: every switch of sign walks again


# ---------------------------------------------------------------------------
# the earlier functions, kept as the reference

def ref_pattern_affine(net, pattern, upto=None):
    n = net.depth if upto is None else upto
    A = np.eye(net.input_dim)
    c = np.zeros(net.input_dim)
    for layer, lp in zip(net.layers[:n], pattern[:n]):
        W, b = layer_selection(layer, lp)
        c = W @ c + b
        A = W @ A
    return AffineMap(A, c)


def ref_output_map(net, prefix, readout=None):
    full = ref_pattern_affine(net, prefix, upto=len(prefix))
    return full if readout is None else readout.compose(full)


def ref_tracked(net, layer, unit, x, readout):
    _check_unit(net, layer, unit, readout)
    acts = forward(net, x)
    value = float(acts[layer][unit] if readout is None else readout(acts[-1])[unit])
    if value <= 0.0:
        return value, None
    pattern = pattern_at(net, x)
    return value, pattern if readout is not None else pattern[:layer + 1]


def ref_tracked_map(net, unit, prefix, readout):
    full = ref_output_map(net, prefix, readout)
    return AffineMap(full.matrix[unit:unit + 1].copy(), full.offset[unit:unit + 1].copy())


def ref_unit_linear_map(net, layer, unit, x):
    _check_unit(net, layer, unit)
    pattern = pattern_at(net, np.asarray(x, float))
    return ref_tracked_map(net, unit, pattern[:layer + 1], None)


def ref_boundary_clearance(net, x):
    x = np.asarray(x, float)
    steps = list(network._walk(net, x))
    pattern = tuple(tuple(S.tolist()) for _, S, _ in steps)
    best = np.inf
    for i, (layer, (z, s, _)) in enumerate(zip(net.layers, steps)):
        G = layer.weights @ ref_pattern_affine(net, pattern, upto=i).matrix
        k = layer.activation.rank
        if k > 1:
            pick = np.arange(layer.width) * k + s
            z = np.repeat(z[pick], k) - z
            G = np.repeat(G[pick], k, axis=0) - G
        norms = np.linalg.norm(G, axis=1)
        keep = norms > 1e-12
        if keep.any():
            best = min(best, float(np.min(np.abs(z[keep]) / norms[keep])))
    return best


def ref_enumerate_unit_pieces(net, layer, unit, samples, readout=None, tol=1e-8):
    pieces, keys, seen = [], [], set()
    for raw in samples:
        x = np.asarray(raw, float)
        act, prefix = ref_tracked(net, layer, unit, x, readout)
        if act <= 0.0 or prefix in seen:
            continue
        seen.add(prefix)
        m = ref_tracked_map(net, unit, prefix, readout)
        key = np.concatenate([m.matrix.ravel(), m.offset])
        if all(np.max(np.abs(key - other)) > tol for other in keys):
            pieces.append(UnitPiece(m, x, act))
            keys.append(key)
    pieces.sort(key=lambda p: tuple(np.concatenate([p.map.matrix.ravel(), p.map.offset])))
    return pieces


def ref_finite_difference_gradient(net, layer, unit, x):
    """The point loop: each shifted point walked alone, through ``layer``."""
    _check_unit(net, layer, unit)
    x = np.asarray(x, float)
    step = 1e-6
    grad = np.zeros(len(x))
    for i in range(len(x)):
        e = np.zeros(len(x))
        e[i] = step
        plus, minus = [
            next(itertools.islice(network._walk(net, y, states=False), layer, None))[2][unit]
            for y in (x + e, x - e)]
        grad[i] = (float(plus) - float(minus)) / (2.0 * step)
    return grad


def ref_walked_unit_pieces(net, layer, unit, samples, readout=None, tol=1e-8):
    """The point loop: each sample walked alone, through the layers its
    tracked value reads, and deduplicated by its pattern prefix."""
    depth = layer + 1 if readout is None else net.depth
    pieces, keys, seen = [], np.empty((0, net.input_dim + 1)), set()
    for x in np.asarray(samples, float):
        steps = list(itertools.islice(network._walk(net, x), depth))
        h = steps[-1][2]
        act = float(h[unit] if readout is None else readout(h)[unit])
        if act <= 0.0:
            continue
        prefix = tuple(tuple(S.tolist()) for _, S, _ in steps)
        if prefix in seen:
            continue
        seen.add(prefix)
        full = network.pattern_affine(net, prefix)
        if readout is not None:
            full = readout.compose(full)
        m = AffineMap(full.matrix[unit:unit + 1], full.offset[unit:unit + 1])
        key = np.concatenate([m.matrix.ravel(), m.offset])
        if (np.abs(keys - key).max(axis=1) > tol).all():
            pieces.append(UnitPiece(m, x, act))
            keys = np.vstack([keys, key])
    pieces.sort(key=lambda p: tuple(np.concatenate([p.map.matrix.ravel(), p.map.offset])))
    return pieces


def ref_find_identified_pair(net, layer, unit, x1, x2, target_tol=1e-10, readout=None):
    x1 = np.asarray(x1, float)
    x2 = np.asarray(x2, float)
    a1, q1 = ref_tracked(net, layer, unit, x1, readout)
    a2, q2 = ref_tracked(net, layer, unit, x2, readout)
    if a1 <= 0.0 or a2 <= 0.0:
        raise ValueError("unit must be active (positive value) at both points")
    m1, m2 = ref_tracked_map(net, unit, q1, readout), ref_tracked_map(net, unit, q2, readout)
    p1, p2 = pattern_at(net, x1), pattern_at(net, x2)
    if p1 == p2:
        return IdentifiedPair(x2.copy(), m1, m2, True)
    g = m2.matrix[0]
    gnorm2 = float(g @ g)
    if gnorm2 < 1e-24:
        raise IdentificationError("value gradient vanishes at the second point")
    adjusted = x2 + ((a1 - a2) / gnorm2) * g
    if pattern_at(net, adjusted) != p2:
        raise IdentificationError(
            "no identified pair along this ray: the region boundary is crossed first")
    miss = abs(ref_tracked(net, layer, unit, adjusted, readout)[0] - a1)
    if miss > target_tol:
        raise IdentificationError(f"adjustment landed {miss:.3e} from the target value")
    return IdentifiedPair(adjusted, m1, m2, False)


def ref_identification_check(net, boxes, probe_count=20, readout=None, tol=1e-8, seed=0):
    boxes = [tuple((float(lo), float(hi)) for lo, hi in b) for b in boxes]
    maps, patterns = [], []
    for b in boxes:
        center = np.array([(lo + hi) / 2 for lo, hi in b])
        pat = pattern_at(net, center)
        maps.append(ref_output_map(net, pat, readout))
        patterns.append(pat)
    rng = np.random.default_rng(seed)
    lo0 = np.array([lo for lo, _ in boxes[0]])
    hi0 = np.array([hi for _, hi in boxes[0]])
    for _ in range(probe_count):
        x = lo0 + (hi0 - lo0) * rng.random(len(boxes[0]))
        target = maps[0](x)
        if np.max(np.abs(output_values(net, x, readout) - target)) > tol:
            return False
        for b, aff, pat in zip(boxes[1:], maps[1:], patterns[1:]):
            A, c = aff.matrix, aff.offset
            if A.shape[0] != A.shape[1]:
                y, *_ = np.linalg.lstsq(A, target - c, rcond=None)
            else:
                try:
                    y = np.linalg.solve(A, target - c)
                except np.linalg.LinAlgError:
                    return False
            if not all(lo < yi < hi for yi, (lo, hi) in zip(y, b)):
                return False
            if pattern_at(net, y) != pat:
                return False
            if np.max(np.abs(output_values(net, y, readout) - target)) > tol:
                return False
    return True


# ---------------------------------------------------------------------------
# bit identity

@pytest.mark.parametrize("name", ["rectifier", "maxout3"])
@pytest.mark.parametrize("with_readout", [False, True], ids=["last-layer", "readout"])
def test_region_map_equals_the_earlier_output_map(name, with_readout):
    rng = np.random.default_rng([7, list(ACTS).index(name), int(with_readout)])
    net = _random_net(rng, ACTS[name], (4, 3, 3))
    readout = AffineMap(rng.normal(size=(2, 3)), rng.normal(size=2)) if with_readout else None
    for x in rng.uniform(-2.0, 2.0, size=(30, 2)):
        pattern, got = region_map(net, x, readout)
        assert pattern == pattern_at(net, x)
        assert _same_map(got, ref_output_map(net, pattern, readout))


def _random_net(rng, act, widths, n0=2):
    """Normal weights; ``act`` is every layer's activation, or a tuple of one per layer."""
    acts = act if isinstance(act, tuple) else (act,) * len(widths)
    layers, fan = [], n0
    for w, act in zip(widths, acts, strict=True):
        rows = w * act.rank
        layers.append(Layer(rng.normal(size=(rows, fan)), rng.normal(size=rows), act))
        fan = w
    return Network(n0, tuple(layers))


def _same_map(a, b):
    return np.array_equal(a.matrix, b.matrix) and np.array_equal(a.offset, b.offset)


def _outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except (ValueError, IdentificationError) as exc:
        return type(exc), str(exc)


ACTS = {"rectifier": ACT_RECTIFIER, "maxout2": maxout(2), "maxout3": maxout(3)}
CASES = [(name, depth, with_readout)
         for name in ACTS for depth in (1, 2, 3) for with_readout in (False, True)]


@pytest.mark.parametrize("name, depth, with_readout", CASES,
                         ids=[f"{n}-L{d}-{'readout' if r else 'units'}" for n, d, r in CASES])
def test_probe_results_equal_the_earlier_functions(name, depth, with_readout):
    rng = np.random.default_rng([depth, list(ACTS).index(name), int(with_readout)])
    net = _random_net(rng, ACTS[name], rng.integers(2, 5, size=depth))
    last = net.layers[-1].width
    readout = AffineMap(rng.normal(size=(2, last)), rng.normal(size=2)) if with_readout else None
    X = rng.uniform(-2.0, 2.0, size=(40, 2))

    for x in X:
        assert boundary_clearance(net, x) == ref_boundary_clearance(net, x)
        for layer in range(net.depth):
            for unit in range(net.layers[layer].width):
                assert _same_map(unit_linear_map(net, layer, unit, x),
                                 ref_unit_linear_map(net, layer, unit, x))

    if readout is None:
        tracked = [(layer, u) for layer in range(net.depth)
                   for u in range(net.layers[layer].width)]
    else:
        tracked = [(0, u) for u in range(readout.matrix.shape[0])]
    for layer, unit in tracked:
        got = enumerate_unit_pieces(net, layer, unit, X, readout=readout)
        want = ref_enumerate_unit_pieces(net, layer, unit, X, readout=readout)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert _same_map(g.map, w.map)
            assert np.array_equal(g.representative, w.representative)
            assert g.activation == w.activation
        for x1, x2 in zip(X[:20], X[20:]):
            got = _outcome(find_identified_pair, net, layer, unit, x1, x2, readout=readout)
            want = _outcome(ref_find_identified_pair, net, layer, unit, x1, x2,
                            readout=readout)
            if isinstance(want, IdentifiedPair):
                assert np.array_equal(got.point, want.point)
                assert _same_map(got.map1, want.map1) and _same_map(got.map2, want.map2)
                assert got.same_region == want.same_region
            else:
                assert got == want

    # a box against itself and against another; tiny boxes sit inside one region
    for x, y in zip(X[:10], X[10:20]):
        for half in (1e-6, 0.3):
            for pair in ((x, x), (x, y)):
                boxes = [tuple((v - half, v + half) for v in p) for p in pair]
                assert identification_check(net, boxes, probe_count=5, readout=readout) == \
                    ref_identification_check(net, boxes, probe_count=5, readout=readout)


# intp states of a rank-129 layer, then int8 ones: a prefix's states stack as intp
MIXED = {"maxout129+2": (maxout(129), maxout(2), maxout(2))}
STACK_CASES = [("abs", 2)] + [(name, n0) for name in {**ACTS, **MIXED} for n0 in (1, 2, 3)]


@pytest.mark.parametrize("with_readout", [False, True], ids=["units", "readout"])
@pytest.mark.parametrize("name, n0", STACK_CASES, ids=[f"{n}-n0={d}" for n, d in STACK_CASES])
def test_stacked_gradients_and_pieces_equal_the_point_loops_as_bytes(name, n0, with_readout):
    """The shifted points of a gradient and the samples of the unit pieces
    walk as one stack; every result is the point loop's, byte for byte, at
    exact zero pre-activations and -0.0 coordinates too."""
    rng = np.random.default_rng([n0, len(name), int(with_readout)])
    if name == "abs":  # zero pre-activations on the axes
        con = build_abs_net()
        net, readout = con.network, con.readout if with_readout else None
    else:
        # odd n0: one-row layers and readout, which BLAS runs as a dot, not a gemv
        widths = (1, 3, 1) if n0 % 2 else (3, 3, 2)
        net = _random_net(rng, {**ACTS, **MIXED}[name], widths, n0=n0)
        row = np.abs(rng.normal(size=(1, widths[-1])))  # and its negative, for two rows
        rows = row if n0 % 2 else np.vstack([row, -row])
        readout = AffineMap(rows, np.full(len(rows), 0.5)) if with_readout else None
    X = rng.uniform(-2.0, 2.0, size=(80, n0))
    X[:20] = rng.choice([-1.0, -0.0, 0.0, 0.5], size=(20, n0))
    if readout is None:
        tracked = [(layer, u) for layer in range(net.depth)
                   for u in range(net.layers[layer].width)]
    else:
        tracked = [(0, u) for u in range(readout.matrix.shape[0])]
    pieces = 0
    for layer, unit in tracked:
        got = enumerate_unit_pieces(net, layer, unit, X, readout=readout)
        want = ref_walked_unit_pieces(net, layer, unit, X, readout=readout)
        assert [_piece_bytes(p) for p in got] == [_piece_bytes(p) for p in want]
        pieces += len(want)
        if readout is None:
            for x in X[:30]:
                assert finite_difference_gradient(net, layer, unit, x).tobytes() == \
                    ref_finite_difference_gradient(net, layer, unit, x).tobytes()
    assert pieces > 0


def _piece_bytes(p):
    return (p.map.matrix.tobytes(), p.map.offset.tobytes(), p.representative.tobytes(),
            np.float64(p.activation).tobytes())


@pytest.mark.parametrize("build, boxes", [
    (build_abs_net, QUADRANTS),
    (lambda: sawtooth_network(3), [((0.05, 0.95),), ((1.05, 1.95),), ((2.05, 2.95),)]),
], ids=["abs", "sawtooth"])
@pytest.mark.parametrize("seed", [0, 7, 15])
def test_identification_check_equals_the_earlier_function_on_witnesses(build, boxes, seed):
    con = build()
    for readout in (con.readout, None):
        assert identification_check(con.network, boxes, readout=readout, seed=seed) == \
            ref_identification_check(con.network, boxes, readout=readout, seed=seed)


@pytest.mark.parametrize("rows, probe_count, want", [
    # without a readout the four quadrants are four distinct outputs; no probe, no test
    (None, 0, True),
    (None, 20, False),
    # |x| alone: lstsq puts box 1's counterparts on y = 0, outside the box
    ([[1.0, 1.0, 0.0, 0.0]], 20, False),
    # |x|, |y| and their sum: three rows of rank 2, solved exactly by lstsq
    ([[1.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 1.0], [1.0, 1.0, 1.0, 1.0]], 20, True),
], ids=["no-probes", "no-readout", "lstsq-one-row", "lstsq-three-rows"])
def test_identification_check_equals_the_earlier_function_without_probes_and_by_lstsq(
        rows, probe_count, want):
    net = build_abs_net().network
    readout = None if rows is None else AffineMap(np.array(rows), np.zeros(len(rows)))
    got = identification_check(net, QUADRANTS, probe_count=probe_count, readout=readout)
    assert got == ref_identification_check(net, QUADRANTS, probe_count=probe_count,
                                           readout=readout)
    assert got is want
