"""Exact enumeration against hand geometry, the grid oracle, and itself."""

import dataclasses
import hashlib
import io
import itertools
import math
import os
import re
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog
from scipy.spatial import ConvexHull

from pwlregions import network, regions
from pwlregions.acceptance import _perturbed
from pwlregions.bounds import shallow_max_regions
from pwlregions.constructions import (
    build_abs_net,
    build_catalan_layer,
    build_folding_rectifier_net,
    build_maxout_cones,
    build_maxout_parallel,
    build_rank2_folding_maxout,
    build_rank2_maxout_as_rectifier,
    build_shi_layer,
    sawtooth_network,
)
from pwlregions.network import (
    ACT_RECTIFIER,
    AffineMap,
    Layer,
    Network,
    forward,
    maxout,
    pattern_at,
    pattern_code,
    pattern_matrix,
)
from pwlregions.regions import (
    EnumerationError,
    FeasibilityConfig,
    RegionBudgetError,
    RegionSet,
    count_regions,
    enumerate_regions,
    exact_strictly_feasible,
    oracle_count_by_grid,
    region_polygons_2d,
)
from pwlregions.reports import (
    region_report,
    region_svg,
    render_region_report,
    write_polygon_csv,
)
from pwlregions.serialize import render_json

BOX2 = FeasibilityConfig(box=((-2.0, 2.0), (-2.0, 2.0)))


def polygon_area(vertices: np.ndarray) -> float:
    """Shoelace area of a polygon given by its vertices in order."""
    if len(vertices) < 3:
        return 0.0
    x, y = vertices[:, 0], vertices[:, 1]
    return 0.5 * abs(float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1))))


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
        assert (r.normals @ r.witness < r.offsets).all()


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


def test_region_cap(monkeypatch):
    # the abs net's one layer makes 4 cells; the cap stops it at the third,
    # before the layer finishes and a child's map is stepped through it
    finished = []
    true_selection = network._select  # the selection every layer step runs

    def selection(layer, states):
        finished.append(states)
        return true_selection(layer, states)

    monkeypatch.setattr(network, "_select", selection)
    with pytest.raises(RegionBudgetError) as err:
        enumerate_regions(build_abs_net().network, FeasibilityConfig(region_cap=2))
    assert err.value.cap == 2
    assert err.value.partial_count == 3
    assert finished == []
    # units 0 and 1 (x > 0, -x > 0) leave two cells; unit 2 splits cell 1,0
    assert str(err.value).endswith("(3 held) at layer 0, unit 2, cell '1,0'")


def test_collapse_names_layer_unit_and_cell(monkeypatch):
    # no unit of layer 1 yields a child: the error names where that happened
    true_extend = regions._try_extend

    def extend(cell, state, new_rows, cfg):
        in_layer_1 = cell.pattern and isinstance(cell.pattern[0], tuple)
        return None if in_layer_1 else true_extend(cell, state, new_rows, cfg)

    monkeypatch.setattr(regions, "_try_extend", extend)
    net = Network(2, (Layer(np.eye(2), np.zeros(2), ACT_RECTIFIER),
                      Layer(np.eye(2), np.zeros(2), ACT_RECTIFIER)))
    with pytest.raises(EnumerationError, match=r"at layer 1, unit 0, cell '1,1'"):
        enumerate_regions(net, BOX2)


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


def _random_net(seed, n0, widths, rank=1):
    """Normal weights; ``rank`` is every layer's rank, or a tuple of one per layer."""
    rng = np.random.default_rng(seed)
    ranks = rank if isinstance(rank, tuple) else (rank,) * len(widths)
    layers, fan = [], n0
    for w, k in zip(widths, ranks, strict=True):
        act = ACT_RECTIFIER if k == 1 else maxout(k)
        layers.append(Layer(rng.normal(size=(k * w, fan)), rng.normal(size=k * w), act))
        fan = w
    return Network(n0, tuple(layers))


BOX10 = FeasibilityConfig(box_halfwidth=10.0)

# Region counts and SHA-256 of the rendered region reports, witnesses
# included, recorded once witnesses became vertex centroids.
GOLDEN_REPORTS = {
    "rect-2-8-8": (lambda: (_random_net(1, 2, (8, 8)), BOX10),
                   104, "bd8d24b4b613445ef9c938e88cac5ba985ae0e40e96d2971cf5f6a349e3123b0"),
    "rect-3-6-6": (lambda: (_random_net(2, 3, (6, 6)), BOX10),
                   239, "17d955fd585a7e047ae9158f56e21ebeffffd1142a55d3701d1add08ec693c31"),
    "rect-4-4-4": (lambda: (_random_net(3, 4, (4, 4)), BOX10),
                   94, "72695d1306537dbfd9e6f641029ccdd010da5323de60ad7c1de0fc3a32b01611"),
    "maxout3-2-3-3": (lambda: (_random_net(4, 2, (3, 3), rank=3), BOX10),
                      47, "101b750b251f76114da109fa53e073c39589690e6c9110faa0e1c0db4c6836ce"),
    "scale10": (lambda: (_scale10_net(), FeasibilityConfig()),
                290, "6de947fa8ccd481fcd9a9a6be97fffb0e1843a434d2f8c02a4519164b1289237"),
    "shi3-exact": (lambda: (build_shi_layer(3).network,
                            FeasibilityConfig(exact_rational=True)),
                   16, "99674b3f394c739d21a2bad982e5344d09716f1c81bae1581d39adf6f843aece"),
    # recorded before the enumerator stacked its unit rows, children's
    # steps and drift check
    "maxout2-2-4-4": (lambda: (_random_net(5, 2, (4, 4), rank=2), BOX10),
                      44, "d0e3e386124a5ae14b6b8769759dc2b8320e528991c6a720a4be9df79fca10b2"),
    "rect-2-5-5-5": (lambda: (_random_net(6, 2, (5, 5, 5)), BOX10),
                     96, "8cc121db90fbe2e749c10e86564d987d0444dd264ac69a196b8c0ed5577c6374"),
    "maxout4-3-3-3": (lambda: (_random_net(7, 3, (3, 3), rank=4), BOX10),
                      251, "b205668c6de935c12def02727ba35274365e85d8aa63b6838c9a1cc34bd46343"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_REPORTS))
def test_reports_byte_identical(name):
    make, count, digest = GOLDEN_REPORTS[name]
    rs = enumerate_regions(*make())
    assert rs.count == count
    assert hashlib.sha256(render_region_report(rs).encode()).hexdigest() == digest


# ---------------------------------------------------------------------------
# region reports: one template per region shape, against the reference
# render_json(region_report(rs))

@st.composite
def _boxes(draw, n0):
    """A symmetric cube, rendered as a scalar box field, or a box with
    bounds of its own per side, rendered as a list."""
    if draw(st.booleans()):
        return FeasibilityConfig(box_halfwidth=draw(st.sampled_from([1.0, 10.0, 1e3])))
    sides = st.floats(0.25, 4.0).map(lambda v: round(v, 2))
    return FeasibilityConfig(box=tuple((-draw(sides), draw(sides)) for _ in range(n0)))


@st.composite
def _enumerations(draw):
    n0 = draw(st.integers(1, 4))
    widths = tuple(draw(st.lists(st.integers(1, 3), min_size=1, max_size=3)))
    net = _random_net(draw(st.integers(0, 2**32 - 1)), n0, widths, draw(st.sampled_from([1, 2, 3])))
    cfg = dataclasses.replace(draw(_boxes(n0)), exact_rational=draw(st.booleans()))
    return enumerate_regions(net, cfg)


@settings(max_examples=60, deadline=None)
@given(_enumerations())
def test_region_report_renders_as_the_reference(rs):
    assert render_region_report(rs) == render_json(region_report(rs))


@pytest.mark.parametrize("box", [((-1.0, 1.0), (-1.0, 1.0)), ((-1.0, 2.0), (-1.0, 1.0))])
def test_a_report_of_no_regions_renders_as_the_reference(box):
    rs = RegionSet((), box)
    assert render_region_report(rs) == render_json(region_report(rs))
    assert '"regions": []' in render_region_report(rs)


def _spoiled(region, field, bad):
    """``region`` with ``bad`` in the first entry of one of its arrays."""
    arrays = {"witness": region.witness, "matrix": region.affine.matrix,
              "offset": region.affine.offset, "normals": region.normals,
              "offsets": region.offsets}
    a = arrays[field].copy()
    a.flat[0] = bad
    arrays[field] = a
    affine = AffineMap(arrays.pop("matrix"), arrays.pop("offset"))
    return dataclasses.replace(region, affine=affine, **arrays)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["witness", "matrix", "offset", "normals", "offsets"])
def test_a_non_finite_region_value_raises(field, bad):
    rs = enumerate_regions(_random_net(0, 2, (2, 2)), BOX10)
    regions = list(rs.regions)
    regions[1] = _spoiled(regions[1], field, bad)
    spoiled = RegionSet(tuple(regions), rs.box)
    with pytest.raises(ValueError, match="non-finite"):
        render_json(region_report(spoiled))
    with pytest.raises(ValueError, match="non-finite"):
        render_region_report(spoiled)


@pytest.mark.parametrize("fields", [("witness",), ("normals", "offsets")],
                         ids=["witness", "constraints"])
def test_a_region_of_integer_arrays_renders_as_the_reference(fields):
    # the reference prints an integer -1 as -1, as "%.17g" prints -1.0; on
    # the abs net's first region every value is a whole number.  Integer
    # normals beside float offsets stack to floats: both must be integers
    rs = enumerate_regions(build_abs_net().network, BOX2)
    r = rs.regions[0]
    ints = {f: np.rint(getattr(r, f)).astype(int) for f in fields}
    assert all(np.array_equal(a, getattr(r, f)) for f, a in ints.items())
    spoiled = RegionSet((dataclasses.replace(r, **ints), *rs.regions[1:]), rs.box)
    assert render_region_report(spoiled) == render_json(region_report(spoiled))


# Float clips on the nets of GOLDEN_REPORTS.  While every (cell, unit)
# pair still clipped both children, the rectifier nets made 1260, 1338, 318
# and 2856; while maxout children still clipped the rows that miss their
# cell, the two maxout nets made 387 and 69.
FLOAT_CLIPS = {"rect-2-8-8": 206, "rect-3-6-6": 476, "rect-4-4-4": 186, "scale10": 578,
               "maxout3-2-3-3": 136, "shi3-exact": 39}


@pytest.mark.parametrize("name", sorted(FLOAT_CLIPS))
def test_missed_planes_run_no_clip(name, monkeypatch):
    """No float clip sees a rectifier plane or a maxout dominance row that
    misses its cell by more than 10*FEAS_TOL on either side."""
    margin = 10 * regions.FEAS_TOL
    clips = []
    true_clip = regions._clip

    def clip(V, tight, s, r, tol):
        clips.append(r)
        assert s.min() <= margin and s.max() >= -margin
        return true_clip(V, tight, s, r, tol)

    monkeypatch.setattr(regions, "_clip", clip)
    make, count, _ = GOLDEN_REPORTS[name]
    assert enumerate_regions(*make()).count == count
    assert len(clips) == FLOAT_CLIPS[name]


# (parent cell, unit) pairs on two nets of GOLDEN_REPORTS.  While each
# unit's rows were built once per (cell, unit), the nets made 630 and 77
# calls; while each unit's rows were built per (parent cell, unit), 296 and 45.
UNIT_ROWS = {"rect-2-8-8": 296, "maxout3-2-3-3": 45}


@pytest.mark.parametrize("name", sorted(UNIT_ROWS))
def test_unit_rows_are_built_once_per_parent_cell(name, monkeypatch):
    """Every cell that one ``_subdivide_cell`` call holds lies in the
    parent cell, where the layer's inputs follow the parent's map, so one
    table per parent cell holds the rows of all the layer's units."""
    widths, tables = [], []
    true_subdivide, true_children = regions._subdivide_cell, regions._unit_children

    def subdivide(cell, net, index, *args):
        widths.append(net.layers[index].width)
        return true_subdivide(cell, net, index, *args)

    def children(G, D):
        tables.append(0)
        for unit in true_children(G, D):
            tables[-1] += 1
            yield unit

    monkeypatch.setattr(regions, "_subdivide_cell", subdivide)
    monkeypatch.setattr(regions, "_unit_children", children)
    make, count, _ = GOLDEN_REPORTS[name]
    assert enumerate_regions(*make()).count == count
    assert tables == widths  # one table per call, one entry per unit of the layer
    assert sum(tables) == UNIT_ROWS[name]


@pytest.mark.parametrize("exact", [False, True], ids=["float", "exact"])
@pytest.mark.parametrize("depth", [1, 2, 3])
@pytest.mark.parametrize("rank, width", [(1, 4), (2, 3), (3, 2)],
                         ids=["rectifier", "maxout2", "maxout3"])
def test_one_layer_step_per_cell_and_layer(rank, width, depth, exact, monkeypatch):
    """Each live cell carries its map, and its children's maps are one
    stacked ``_layer_step`` of it: one call per parent cell, whose stacks
    hold one pattern per distinct pattern prefix, and no map is composed
    from the input by ``pattern_affine``."""
    stacks = []
    true_step = regions._layer_step

    def step(layer, states, A, c):
        stacks.append(states)
        return true_step(layer, states, A, c)

    def from_the_input(*args):
        raise AssertionError("a map was composed from the input")

    subdivided = []
    true_subdivide = regions._subdivide_cell

    def subdivide(*args):
        subdivided.append(args[0])
        return true_subdivide(*args)

    monkeypatch.setattr(regions, "_layer_step", step)
    monkeypatch.setattr(regions, "_subdivide_cell", subdivide)
    monkeypatch.setattr(network, "pattern_affine", from_the_input)
    net = _random_net([5, rank, depth], 2, (width,) * depth, rank)
    rs = enumerate_regions(net, dataclasses.replace(BOX10, exact_rational=exact))
    assert "pattern_affine" not in vars(regions)
    assert rs.count > depth
    assert len(stacks) == len(subdivided)
    assert all(s.ndim == 2 for s in stacks)
    assert sum(len(s) for s in stacks) == sum(len({r.pattern[:i + 1] for r in rs.regions})
                                              for i in range(depth))


def _bits(*arrays) -> list[bytes]:
    return [np.asarray(a, float).tobytes() for a in arrays]


@settings(max_examples=150, deadline=None)
@given(rank=st.sampled_from([1, 2, 3, 4, 129]), n0=st.integers(1, 4), fan=st.integers(1, 16),
       width=st.integers(1, 6), stack=st.integers(1, 12), seed=st.integers(0, 2**32 - 1))
def test_stacked_products_equal_the_lone_ones_bit_for_bit(rank, n0, fan, width, stack, seed):
    """The enumerator stacks each cell's unit rows, its children's layer
    steps and its regions' maps at their witnesses, and linmap walks a
    call's points as one stack; every item must be the lone product or
    walk bit for bit.  ``_layer_step`` trusts its states: on the walk's
    int8 (intp above rank 128) states and the enumerator's int64 stacks it
    equals the checked ``layer_selection`` of the pattern as a tuple and
    the same two products.  A stack of patterns raises the error of its
    first bad pattern alone, and ``pattern_affine`` raises it too."""
    rng = np.random.default_rng(seed)
    scale = 10.0 ** rng.integers(-3, 4)
    weights = scale * rng.normal(size=(rank * width, fan))
    weights[rng.random(size=weights.shape) < 0.2] = -0.0
    layer = Layer(weights, rng.normal(size=rank * width),
                  ACT_RECTIFIER if rank == 1 else maxout(rank))
    # the constants made once: the width, each unit's branch-0 row, (I, 0), the shifts
    assert layer.width == vars(layer)["width"] == width
    assert layer._branch_rows.tolist() == list(range(0, rank * width, rank))
    origin, shifts = network._origin(n0), network._origin(n0, 1e-6)[0]
    assert _bits(*origin, shifts) == _bits(np.eye(n0), np.zeros(n0), 1e-6 * np.eye(n0))
    assert not any(a.flags.writeable for a in (layer._branch_rows, *origin, shifts))
    A, c = rng.normal(size=(fan, n0)), scale * rng.normal(size=fan)
    # unit rows and offsets, as _subdivide_cell stacks them
    W, b = layer.weights, layer.bias
    units = W.reshape(width, rank, fan)
    G, D = units @ A, units @ c + b.reshape(width, rank)
    for j in range(width):
        if rank == 1:
            assert _bits(G[j, 0], D[j, 0]) == _bits(W[j] @ A, float(W[j] @ c + b[j]))
        else:
            rows = slice(j * rank, (j + 1) * rank)
            assert _bits(G[j], D[j]) == _bits(W[rows] @ A, W[rows] @ c + b[rows])
    P = rng.integers(0, max(rank, 2), size=(stack, width))
    As, Cs = network._layer_step(layer, P, A, c)
    assert As.shape == (stack, width, n0) and Cs.shape == (stack, width)
    X = rng.normal(size=(stack, n0))
    mapped = (As @ X[..., None])[..., 0] + Cs  # the drift check's maps at the witnesses
    walked_dtype = np.int8 if rank <= 128 else np.intp
    one = Network(fan, (layer,))
    for i, pattern in enumerate(P.tolist()):
        Wi, bi = network.layer_selection(layer, tuple(pattern))  # checked
        rows = [j * rank + s for j, s in enumerate(pattern)]  # the selection, row by row
        assert _bits(Wi, bi) == (_bits(W * P[i, :, None], b * P[i]) if rank == 1
                                 else _bits(W[rows], b[rows]))
        Ai, ci = network._layer_step(layer, P[i].astype(walked_dtype), A, c)
        assert _bits(As[i], Cs[i]) == _bits(Ai, ci) == _bits(Wi @ A, Wi @ c + bi)
        assert _bits(mapped[i]) == _bits(AffineMap(Ai, ci)(X[i]))
        from_input = network.pattern_affine(one, (tuple(pattern),))
        assert _bits(from_input.matrix, from_input.offset) == \
            _bits(*network._layer_step(layer, P[i], *network._origin(fan)))

    # a stack of points (stack, n0, 1) walked against each point alone; small
    # integers give exact zero pre-activations and tied maxout branches, and
    # a last rectifier unit a one-row product, which BLAS runs as a dot
    ints = rng.random() < 0.5

    def draw(*shape):
        return rng.integers(-1, 2, size=shape) * 1.0 if ints else scale * rng.normal(size=shape)

    net = Network(n0, tuple(Layer(draw(r * w, f), draw(r * w), act) for r, w, f, act in (
        (rank, fan, n0, layer.activation), (rank, width, fan, layer.activation),
        (1, 1, width, ACT_RECTIFIER))))
    points = draw(stack, n0)
    points[rng.random(size=points.shape) < 0.3] = -0.0
    walked = list(network._walk(net, points[..., None]))
    for i, x in enumerate(points):
        Ax, cx = origin  # x's map, stepped on the states its walk made
        for lay, (Z, S, H), (z, s, h) in zip(net.layers, walked, network._walk(net, x),
                                             strict=True):
            assert Z.shape[::2] == S.shape[::2] == H.shape[::2] == (stack, 1)
            assert (Z[i, :, 0].tobytes(), H[i, :, 0].tobytes()) == (z.tobytes(), h.tobytes())
            assert S.dtype == s.dtype == (np.int8 if lay.activation.rank <= 128 else np.intp)
            assert S[i, :, 0].tobytes() == s.tobytes()
            Ws, bs = network.layer_selection(lay, tuple(s.tolist()))
            want = _bits(Ws @ Ax, Ws @ cx + bs)
            Ax, cx = network._layer_step(lay, s, Ax, cx)
            assert _bits(Ax, cx) == want

    def error(pattern, select=network.layer_selection):
        with pytest.raises(ValueError) as err:
            select(layer, pattern)
        return str(err.value)

    def from_input(_, pattern):
        return network.pattern_affine(one, (pattern,))

    longer = np.hstack([P, P[:, :1]])
    assert error(longer) == error(tuple(longer[0].tolist())) == \
        error(tuple(longer[0].tolist()), from_input) == "pattern length does not match layer width"
    if rank > 1:
        bad, first = P.copy(), rng.integers(stack)
        bad[first, rng.integers(width)] = rank  # the patterns after it are bad too
        bad[first + 1:, rng.integers(width)] = -1
        assert error(bad) == error(tuple(bad[first].tolist())) == \
            error(tuple(bad[first].tolist()), from_input)
        assert error(bad).startswith("branch index ")


# The per-row helpers that built each unit's rows before the row table,
# kept as its reference: one norm per row, one generator per unit kind.
def ref_norm(v) -> float:
    try:
        return float(np.linalg.norm(v))
    except FloatingPointError:  # the squares overflow: rescale, only here
        m = float(np.abs(v).max())
        return m * float(np.linalg.norm(v / m))


def ref_rectifier_children(g, d):
    norm = ref_norm(g)
    if norm < regions._ZERO_ROW * max(1.0, abs(d)):
        yield 1 if d > 0 else 0, []  # constant on the cell: the bias sign decides
        return
    row, off = -g / norm, d / norm  # active: g.x + d > 0  <=>  (-g).x < d
    yield 1, [(row, off)]
    yield 0, [(-row, -off)]


def ref_maxout_children(G, D):
    k = G.shape[0]
    for t in range(k):
        rows = []
        for s in range(k):
            if s == t:
                continue
            row = G[s] - G[t]
            off = D[t] - D[s]
            norm = ref_norm(row)
            if norm >= regions._ZERO_ROW * max(1.0, abs(off)):
                rows.append((row / norm, off / norm))
            elif off < 0 or (off == 0 and s < t):
                break  # s beats branch t everywhere; identical branches: the lower index wins
        else:
            yield t, rows


def _children_bits(units) -> list:
    """Each unit's children as bytes, in turn; an overflow that ends the
    units is the last item."""
    bits = []
    try:
        for unit in units:
            bits.append([(state, [(np.asarray(row).tobytes(), np.float64(off).tobytes())
                                  for row, off in rows]) for state, rows in unit])
    except FloatingPointError:
        bits.append("overflow")
    return bits


@settings(max_examples=300, deadline=None)
@given(rank=st.integers(1, 4), n0=st.integers(1, 4), fan=st.integers(1, 8), width=st.integers(1, 8),
       kind=st.sampled_from(["normal", "integer", "1e160", "1e300", "1e308"]),
       seed=st.integers(0, 2**32 - 1))
# n0 = 3: on these, under the generic kernel, a norm read away from the lone
# row's alignment (a rectifier's in a slot, a maxout's off one) differs
@example(rank=1, n0=3, fan=4, width=8, kind="normal", seed=0)
@example(rank=2, n0=3, fan=4, width=8, kind="normal", seed=0)
def test_unit_rows_equal_the_per_row_references_bit_for_bit(rank, n0, fan, width, kind, seed):
    """One row table per parent cell gives every unit the children that
    the per-row references give: the same states in the same order, and
    the same row and offset bytes, on eight parent cells of one layer.
    Small integers give zero difference rows with negative, zero and
    positive offsets, and identical branches; the squares of rows of size
    1e160 and 1e300 overflow and are rescaled; near 1e308 a maxout
    difference may overflow, and then the same unit raises.  Under
    OpenBLAS's generic kernel this holds only if each norm reads its row
    at the alignment the reference's lone norm reads it at."""
    rng = np.random.default_rng(seed)

    def draw(*shape):
        return (rng.integers(-1, 2, size=shape) * 1.0 if kind == "integer"
                else rng.uniform(-1.0, 1.0, size=shape) if kind == "1e308" else rng.normal(size=shape))

    scale = (1.0 if kind == "integer" else 10.0 ** rng.integers(-3, 4) if kind == "normal"
             else float(kind) / (4 * fan) if kind != "1e308"  # rows of size about 1e160 or 1e300
             else 1.7e308 / fan)  # entries below the largest float, differences not always
    units, b = scale * draw(width, rank, fan), (scale if kind == "1e308" else 1.0) * draw(width, rank)
    for _ in range(8):
        A, c = draw(fan, n0), draw(fan)
        with np.errstate(over="raise"):  # as enumerate_regions runs them
            try:
                G, D = units @ A, units @ c + b  # as _subdivide_cell stacks them
            except FloatingPointError:  # an overflowing map is no parent cell
                assert kind == "1e308"
                continue
            expected = _children_bits(list(ref_rectifier_children(G[j, 0], float(D[j, 0])) if rank == 1
                                           else ref_maxout_children(G[j], D[j])) for j in range(width))
            assert _children_bits(regions._unit_children(G, D)) == expected


def _enumeration_order(net, cfg, monkeypatch):
    """The patterns of ``net``'s regions in the order the enumerator makes
    them, which the drift check keeps."""
    made = []
    true_subdivide = regions._subdivide_cell

    def subdivide(cell, net, index, *args):
        out = true_subdivide(cell, net, index, *args)
        if index == net.depth - 1:
            made.extend(tuple(c.pattern) for c, _, _ in out)
        return out

    with monkeypatch.context() as m:
        m.setattr(regions, "_subdivide_cell", subdivide)
        enumerate_regions(net, cfg)
    return made


@pytest.mark.parametrize("skewed", [1, 2])
def test_the_batched_drift_check_names_the_first_skewed_region(skewed, monkeypatch):
    """One skewed item of one stacked step fails its region alone; of two,
    the one the enumerator made first is named, not the first by pattern."""
    net = _random_net(1, 2, (8, 8))
    made = _enumeration_order(net, BOX10, monkeypatch)
    # a pair made in one order and sorted in the other
    p, q = next((p, q) for p in range(len(made)) for q in range(p + 1, len(made))
                if made[q] < made[p])
    items = [p, q][-skewed:]
    seen = [0]
    true_step = regions._layer_step

    def step(layer, states, A, c):
        As, Cs = true_step(layer, states, A, c)
        if layer is net.layers[-1]:
            first, seen[0] = seen[0], seen[0] + len(states)
            Cs = Cs.copy()
            for i in items:
                if first <= i < seen[0]:
                    Cs[i - first] += 1.0
        return As, Cs

    monkeypatch.setattr(regions, "_layer_step", step)
    with pytest.raises(EnumerationError) as err:
        enumerate_regions(net, BOX10)
    assert re.fullmatch(r"affine map drifted \(\S+\) on region (\S+)", str(err.value))[1] == \
        pattern_code(made[items[0]])


_CORNER_SYSTEMS = [
    (((-1.0, 1.0), (-1.0, 1.0)), [[0.6, 0.8]], [0.1]),
    (((-2.0, 3.0), (0.0, 0.5)), [[0.0, -1.0], [-1.0, 0.0]], [-0.25, -3.5]),
]


def test_box_corners_are_built_once_and_cannot_change(monkeypatch):
    """Two boxes in turn answer as each does in a fresh process, and their
    cached corners are tuples that nothing can change in place."""
    fresh = []
    src = Path(regions.__file__).parents[1]
    for system in _CORNER_SYSTEMS:
        code = ("import numpy as np; from pwlregions import regions; "
                f"box, normals, offsets = {system!r}; "
                "root = regions._root_cell(box); "
                "print(repr(regions.exact_strictly_feasible("
                "np.array(root.normals + normals), np.array(root.offsets + offsets))))")
        fresh.append(subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                                    env={**os.environ, "PYTHONPATH": str(src)},
                                    check=True).stdout)
    assert fresh[0].startswith("(True, ") and fresh[1].startswith("(False, ")
    systems = [_in_box(*system) for system in _CORNER_SYSTEMS]
    built = []
    true_root = regions._root_cell
    monkeypatch.setattr(regions, "_root_cell", lambda box: built.append(box) or true_root(box))
    regions._box_corners.cache_clear()
    for _ in range(2):
        for system, want in zip(systems, fresh):
            assert repr(exact_strictly_feasible(*system)) + "\n" == want
    assert built == [system[0] for system in _CORNER_SYSTEMS]
    for system in _CORNER_SYSTEMS:
        rows, corners, masks = cached = regions._box_corners(system[0])
        assert all(type(t) is tuple for t in (cached, rows, corners, masks, *rows, *corners))
        with pytest.raises(TypeError):
            corners[0][0] = 0
        with pytest.raises(TypeError):
            masks[0] = 0


def test_miss_rule_holds_after_an_exact_witness(monkeypatch):
    """The miss rule also runs on a cell whose witness came from the exact
    clip.  On this perturbed folding witness (c11's trial 3 of its second
    witness at seed 0) some cells take such a witness, later planes miss
    them, and no float clip sees those planes: 5 exact clips run, 9 while
    those cells still clipped."""
    margin = 10 * regions.FEAS_TOL
    exact, true_exact, true_clip = [], regions.exact_strictly_feasible, regions._clip

    def clip(V, tight, s, r, tol):
        assert s.min() <= margin and s.max() >= -margin
        return true_clip(V, tight, s, r, tol)

    def exact_strictly_feasible(*args):
        exact.append(args)
        return true_exact(*args)

    monkeypatch.setattr(regions, "_clip", clip)
    monkeypatch.setattr(regions, "exact_strictly_feasible", exact_strictly_feasible)
    con = build_folding_rectifier_net(2, (4, 4), seed=0)
    net = _perturbed(con.network, np.random.default_rng([0, 11, 1, 3]))
    enumerate_regions(net, FeasibilityConfig(box=con.spec.count_box))
    assert len(exact) == 5


def test_rank3_siblings_are_decided_beside_a_whole_child():
    """In a box of +-1e12 the float vertices can lie far from a cell.  Here
    a rank-3 child keeps a whole cell by its vertices while a sibling, cut
    by another row first, is still found by the exact clip: stopping a
    unit's children after the whole one loses that region."""
    net = _random_net(94, 2, (2, 3), rank=3)
    rs = enumerate_regions(net, FeasibilityConfig(box_halfwidth=1e12))
    assert rs.count == 29
    (sibling,) = [r for r in rs.regions if r.pattern == ((0, 2), (1, 1, 2))]
    assert sibling.vertices is None
    assert (sibling.offsets - sibling.normals @ sibling.witness).min() > 0.09
    assert pattern_at(net, sibling.witness) == sibling.pattern


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _report_without_witnesses(rs) -> str:
    report = region_report(rs)
    for region in report["regions"]:
        del region["witness"]
    return render_json(report)


# SHA-256 of the same reports with every region's witness left out, recorded
# while witnesses still came from a max-slack LP: where a witness comes from
# must not move a count, pattern, map or row.
GOLDEN_REPORTS_WITHOUT_WITNESSES = {
    "rect-2-8-8": "93988635b2eaa0a0f11aeb09bddfc3067a93937fb246df167b7c65234441615e",
    "rect-3-6-6": "271136eb76eca9b46182d8b4453e1f027a15f14ec9f66f5b0c9d703d8936663a",
    "rect-4-4-4": "2f9aa379563338aa93fb632be3f8195ad39f1c1ca1cd2ec0d4315527afe8f79c",
    "maxout3-2-3-3": "378aa5d11de5781a644060ce58f9b7adf1e466dc76ef36431b1475860e46007b",
    "scale10": "22a1949c4eaabd3c94d728eaf85a88dd9125bd3b0cafbd609ecb5cd6e3ef474a",
    "shi3-exact": "10464ecc220b2342341f9dadf6af1b81395006fef808805e314e1d12ebd9c604",
    # recorded with their full reports above
    "maxout2-2-4-4": "e695aa0e1c526ec4dbcb1c456ebd41951c428549772b68961f629ce9ee908dea",
    "rect-2-5-5-5": "a6059bc6a8c5dc7ff4150ce9a943fac3612f215de6368590cd7e7706db22353d",
    "maxout4-3-3-3": "ed03516194d39cc34670d5d0bbc27b4bd602f2bd31d5cc742c318bfeb5a41d12",
}


@pytest.mark.parametrize("name", sorted(GOLDEN_REPORTS))
def test_reports_identical_apart_from_witnesses(name):
    make, count, _ = GOLDEN_REPORTS[name]
    rs = enumerate_regions(*make())
    assert rs.count == count
    assert _sha256(_report_without_witnesses(rs)) == GOLDEN_REPORTS_WITHOUT_WITNESSES[name]


@pytest.mark.parametrize("net, exact_calls", [
    (_random_net(1, 2, (8, 8)), 0),
    (_random_net(3, 4, (4, 4)), 0),
    (build_shi_layer(4).network, 116),  # concurrent planes: non-simple vertices
], ids=["2d", "4d", "shi4"])
def test_carried_vertices(net, exact_calls, monkeypatch):
    """On nets in general position no child needs the exact clip: the
    vertices prove every empty child, and the centroid certifies every
    other; on shi(4) it drops the children that only touch a vertex.  On
    every net each region's witness is the centroid of its vertices, which
    satisfy its rows, lie on the rows their masks name, and whose hulls
    tile the box with no point to spare: no vertex went missing and none
    is redundant."""
    calls = []
    true_exact = regions.exact_strictly_feasible

    def exact_strictly_feasible(*args):
        calls.append(args)
        return true_exact(*args)

    monkeypatch.setattr(regions, "exact_strictly_feasible", exact_strictly_feasible)
    rs = enumerate_regions(net, BOX10)
    assert len(calls) == exact_calls
    scale = 10.0
    volume = 0.0
    for r in rs.regions:
        assert r.vertices is not None and len(r.tight) == len(r.vertices)
        assert np.array_equal(r.witness, r.vertices.mean(axis=0))
        slack = r.offsets[None, :] - r.vertices @ r.normals.T
        assert slack.min() >= -1e-9 * scale
        for s, mask in zip(slack, r.tight):
            on = [j for j in range(len(s)) if mask >> j & 1]
            assert len(on) >= net.input_dim and np.abs(s[on]).max() <= 1e-9 * scale
        hull = ConvexHull(r.vertices)
        assert len(hull.vertices) == len(r.vertices)
        volume += hull.volume
    assert volume == pytest.approx((2 * scale) ** net.input_dim, rel=1e-9)


def _witness_cfg(con, exact=False):
    return con.network, FeasibilityConfig(box=con.spec.count_box, exact_rational=exact)


# SHA-256 of the polygon CSV followed by the SVG.  Each polygon's listing
# starts at an angle around the witness, and the SVG draws the witness:
# all but abs were recorded again once witnesses became vertex centroids.
GOLDEN_POLYGONS = {
    "abs": (lambda: _witness_cfg(build_abs_net()),
            "91fcb50eb955251bbff4b0f32a14e26be4534e2d255b6bb6b549ae394d20888b"),
    "folding-2-4-4": (lambda: _witness_cfg(build_folding_rectifier_net(2, (4, 4))),
                      "92f990dd61fe114de6a79dbb6275f2999dfd31d0fc4defd486dac775eac064f8"),
    "cones-2-2-4-exact": (lambda: _witness_cfg(build_maxout_cones(2, 2, 4), exact=True),
                          "f6a574c551304ab32524657900eecf0e902c1f0e279d1be9435e46bd513afa6c"),
    "rect-2-8-8": (lambda: (_random_net(1, 2, (8, 8)), BOX10),
                   "d7e493ed2d37b4283ad24764bf0c4176cb566ddf901bc280fe47ec7f59adfebc"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_POLYGONS))
def test_polygon_exports_byte_identical(name):
    make, digest = GOLDEN_POLYGONS[name]
    rs = enumerate_regions(*make())
    polygons = region_polygons_2d(rs)
    csv = io.StringIO()
    write_polygon_csv(rs, csv, polygons)
    blob = csv.getvalue() + region_svg(rs, polygons)
    assert hashlib.sha256(blob.encode()).hexdigest() == digest


def _polygon_vertex_sets(rs, polygons) -> str:
    """Each region's pattern and its polygon's vertices in sorted order:
    what the polygons are, not where their listing starts."""
    return "".join(
        pattern_code(r.pattern) + "".join(f";{x:.17g},{y:.17g}" for x, y in sorted(p.tolist()))
        + "\n" for r, p in zip(rs.regions, polygons))


# SHA-256 of _polygon_vertex_sets for the same enumerations, recorded while
# witnesses still came from a max-slack LP.
GOLDEN_POLYGON_VERTEX_SETS = {
    "abs": "2241f32bf199ed32375958852965e49a2944cb185875cb66b525c37b2979ee5b",
    "folding-2-4-4": "20c6722ce3f804c0a506de6a5c6f6975d115a17633faa90c16107b73e06710c6",
    "cones-2-2-4-exact": "8300c6fb9bd5485cbf9a81b2c51a3d94b58bc9815abf2eb8ec088fb317b694fd",
    "rect-2-8-8": "798f1c0c02b53d92915ef38aa49d3e467cb9de55628fdfeeeb2588a1b32a7d4d",
}


@pytest.mark.parametrize("name", sorted(GOLDEN_POLYGONS))
def test_polygons_identical_apart_from_witnesses(name):
    rs = enumerate_regions(*GOLDEN_POLYGONS[name][0]())
    digest = _sha256(_polygon_vertex_sets(rs, region_polygons_2d(rs)))
    assert digest == GOLDEN_POLYGON_VERTEX_SETS[name]


WITNESSES_2D = {
    "shi(2)": lambda: build_shi_layer(2),
    "catalan(2)": lambda: build_catalan_layer(2),
    "parallel(2,2,3)": lambda: build_maxout_parallel(2, 2, 3),
    "parallel(2,2,4)": lambda: build_maxout_parallel(2, 2, 4),
    "parallel(2,3,3)": lambda: build_maxout_parallel(2, 3, 3),
    "folding(2;4,4)": lambda: build_folding_rectifier_net(2, (4, 4)),
    "folding(2;5,3)": lambda: build_folding_rectifier_net(2, (5, 3)),
    "folding(2;2,2,2)": lambda: build_folding_rectifier_net(2, (2, 2, 2)),
    "rank2-folding(2,2)": lambda: build_rank2_folding_maxout(2, 2),
    "rank2-folding(2,3)": lambda: build_rank2_folding_maxout(2, 3),
    "cones(2,2,2)": lambda: build_maxout_cones(2, 2, 2),
    "cones(2,2,3)": lambda: build_maxout_cones(2, 2, 3),
    "cones(2,2,4)": lambda: build_maxout_cones(2, 2, 4),
    "cones(2,3,3)": lambda: build_maxout_cones(2, 3, 3),
    "abs": build_abs_net,
    "sawtooth(2,n0=2)": lambda: sawtooth_network(2, n0=2),
    "rank2-sim(2,2)": lambda: build_rank2_maxout_as_rectifier(2, 2).rectifier,
}


@pytest.mark.parametrize("name", sorted(WITNESSES_2D))
def test_polygons_tile_the_box(name):
    # exact mode keeps cones(2,3,3)'s two phantoms of the float-composed rows,
    # which carry no vertices: their empty polygons leave out an area far
    # below the tolerance
    rs = enumerate_regions(*_witness_cfg(WITNESSES_2D[name](), exact=True))
    for r in rs.regions:
        assert _exactly_inside(r.normals, r.offsets, r.witness.tolist())
    (x0, x1), (y0, y1) = rs.box
    area = sum(polygon_area(p) for p in region_polygons_2d(rs))
    assert area == pytest.approx((x1 - x0) * (y1 - y0), rel=1e-9)


def ref_region_polygons_2d(rs):
    """The earlier function: every row index scanned per mask, one solve
    per vertex and one arctan2 per region."""
    polys = []
    for region in rs.regions:
        N, o = region.normals, region.offsets
        pts = []
        for mask in region.tight or ():
            rows = [i for i in range(len(o)) if mask >> i & 1]
            for i, j in itertools.combinations(rows, 2):
                A = np.array([N[i], N[j]])
                if abs(A[0, 0] * A[1, 1] - A[0, 1] * A[1, 0]) >= 1e-12:
                    pts.append(np.linalg.solve(A, np.array([o[i], o[j]])))
                    break
        if len(pts) < 3:
            polys.append(np.zeros((0, 2)))
            continue
        arr = np.array(pts)
        ang = np.arctan2(arr[:, 1] - region.witness[1], arr[:, 0] - region.witness[0])
        polys.append(arr[np.argsort(ang)])
    return polys


def _polygon_bytes(polygons):
    return [(p.shape, p.dtype, p.tobytes()) for p in polygons]


@pytest.mark.parametrize("exact", [False, True], ids=["float", "exact"])
@pytest.mark.parametrize("name", sorted(WITNESSES_2D))
def test_polygons_equal_the_per_vertex_solves_on_the_witnesses(name, exact):
    """All vertices solve as one stack: each polygon must be the earlier
    function's, byte for byte, on every 2-d witness."""
    rs = enumerate_regions(*_witness_cfg(WITNESSES_2D[name](), exact=exact))
    assert _polygon_bytes(region_polygons_2d(rs)) == _polygon_bytes(ref_region_polygons_2d(rs))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), width=st.integers(2, 5), parallel=st.booleans(),
       concurrent=st.booleans(), deeper_rank=st.sampled_from([0, 1, 2]),
       thin=st.sampled_from([1e-3, 0.05, 1.0]), exact=st.booleans())
def test_polygons_equal_the_per_vertex_solves_at_parallel_and_concurrent_rows(
        seed, width, parallel, concurrent, deeper_rank, thin, exact):
    """Small integer first-layer rows make parallel pairs; offsets through
    one point make three or more rows tight at a vertex; a thin box makes
    near-degenerate cells.  The enumerator keeps no two parallel rows tight
    at one vertex, so each region's first row is also doubled by hand,
    which makes the first pair of its vertices parallel and skipped."""
    rng = np.random.default_rng(seed)
    W = rng.integers(-3, 4, size=(width, 2)).astype(float)
    W[~W.any(axis=1)] = (1.0, -2.0)  # no zero row
    if parallel:
        W[1] = -2.0 * W[0]
    b = -(W @ [0.5, -0.25]) if concurrent else rng.normal(size=width)
    layers = [Layer(W, b)]
    if deeper_rank:  # a second layer of two units
        k = deeper_rank
        layers.append(Layer(rng.normal(size=(2 * k, width)), rng.normal(size=2 * k),
                            ACT_RECTIFIER if k == 1 else maxout(k)))
    box = ((-1.0, 1.0), (-0.25 - thin, -0.25 + thin))
    rs = enumerate_regions(Network(2, tuple(layers)),
                           FeasibilityConfig(box=box, exact_rational=exact))
    doubled = RegionSet(tuple(dataclasses.replace(
        r, normals=np.vstack([r.normals[:1], r.normals]),
        offsets=np.concatenate([r.offsets[:1], r.offsets]),
        tight=r.tight and [m << 1 | m & 1 for m in r.tight]) for r in rs.regions), rs.box)
    for case in (rs, doubled):
        assert _polygon_bytes(region_polygons_2d(case)) == \
            _polygon_bytes(ref_region_polygons_2d(case))


def test_drift_check_scales_with_magnitude():
    # an absolute 1e-9 bound refused this net (drift 1.86e-09)
    assert enumerate_regions(_scale10_net()).count == 290


def test_drift_check_catches_a_wrong_map(monkeypatch):
    # every composed map off by a relative 1e-6 must still be refused
    true_selection = network._select  # the selection every layer step runs

    def skewed(layer, states):
        W, b = true_selection(layer, states)
        return W * (1 + 1e-6), b * (1 + 1e-6)

    monkeypatch.setattr(network, "_select", skewed)
    with pytest.raises(EnumerationError, match="drifted"):
        enumerate_regions(three_lines_net())


def test_drift_check_fails_on_nan(monkeypatch):
    # no comparison with a NaN drift holds; an overflowing forward pass, which
    # made one, is refused before it (test_an_overflowing_forward_pass_...)
    net = Network(2, (Layer([[1.0, 1.0]], [0.0]),))
    monkeypatch.setattr(regions, "forward", lambda net, X: [np.full((1, len(X)), np.nan)])
    with pytest.raises(EnumerationError, match=r"drifted \(nan\) on region [01]$"):
        enumerate_regions(net)


def test_box_clips_regions():
    # sawtooth breakpoints at 0 and 1; a box left of 1 sees only two cells
    W = np.array([[1.0], [2.0]])
    b = np.array([0.0, -2.0])
    net = Network(1, (Layer(W, b, ACT_RECTIFIER),))
    assert count_regions(net, FeasibilityConfig(box=((-1.0, 0.9),))) == 2
    assert count_regions(net, FeasibilityConfig(box=((-1.0, 2.0),))) == 3


def test_sliver_thinner_than_the_vertex_margin_is_kept():
    # breakpoints 5e-7 apart: the middle cell's clearance 2.5e-7 clears
    # FEAS_TOL, though its vertices lie within 10*FEAS_TOL of the cut
    W = np.array([[1.0], [1.0]])
    b = np.array([0.0, -5e-7])
    net = Network(1, (Layer(W, b, ACT_RECTIFIER),))
    assert count_regions(net, FeasibilityConfig(box=((-1.0, 1.0),))) == 3


def test_config_validation():
    cfg = FeasibilityConfig(box=((0.0, 1.0),))
    with pytest.raises(ValueError):
        cfg.resolved_box(2)
    with pytest.raises(ValueError):
        FeasibilityConfig(box=((1.0, 0.0),)).resolved_box(1)
    with pytest.raises(ValueError):
        FeasibilityConfig(box_halfwidth=0.0).resolved_box(1)
    # non-finite bounds, and sides too narrow to hold a ball of radius FEAS_TOL
    for bad in (np.inf, np.nan):
        with pytest.raises(ValueError, match="not finite"):
            FeasibilityConfig(box_halfwidth=bad).resolved_box(1)
        with pytest.raises(ValueError, match="not finite"):
            FeasibilityConfig(box=((0.0, 1.0), (-bad, 1.0))).resolved_box(2)
    with pytest.raises(ValueError, match="feas_tol"):
        FeasibilityConfig(box_halfwidth=1e-300).resolved_box(1)
    with pytest.raises(ValueError, match="feas_tol"):
        FeasibilityConfig(box=((0.0, 2e-7),)).resolved_box(1)
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


def test_maxout_tie_rule_for_constant_branch_differences():
    # unit 0's two branches are identical, so the tie goes to branch 0;
    # unit 1's branch 1 beats branch 0 by 1 everywhere.  Neither cuts the
    # box, and the rectifier layer on (x, y + 1) breaks on x + y = 0 and 1.
    first = Layer([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]], [0.0, 0.0, 0.0, 1.0],
                  maxout(2))
    net = Network(2, (first, Layer([[1.0, 1.0], [1.0, 1.0]], [-1.0, -2.0])))
    rs = enumerate_regions(net, BOX2)
    assert rs.count == oracle_count_by_grid(net, BOX2.box, 400) == 3
    for r in rs.regions:
        assert r.pattern[0] == (0, 1) and r.pattern == pattern_at(net, r.witness)


@pytest.mark.parametrize("w", [1e160, 1e300])
@pytest.mark.parametrize("kind", ["rectifier", "maxout2"])
def test_huge_unit_rows_still_split(kind, w):
    # |g|**2 overflows above about 1.3e154; the norm is rescaled, not inf
    layer = (Layer([[w]], [0.0]) if kind == "rectifier"
             else Layer([[w], [-w]], [0.0, 0.0], maxout(2)))
    rs = enumerate_regions(Network(1, (layer,)), FeasibilityConfig(box_halfwidth=1.0))
    assert [r.pattern for r in rs.regions] == [((0,),), ((1,),)]


@pytest.mark.parametrize("layers, where", [
    # 1e200 * 1e200 overflows in the second layer's pre-activations
    ((Layer([[1e200]], [0.0]), Layer([[1e200]], [0.0])), "layer 1, cell '1'"),
    # the branches are finite, but their difference 2e308 is not
    ((Layer([[1e308], [-1e308]], [0.0, 0.0], maxout(2)),), "layer 0, cell ''"),
], ids=["composed", "maxout-difference"])
def test_overflowing_map_names_its_layer(layers, where):
    with pytest.raises(EnumerationError, match=f"overflow at {where}"):
        enumerate_regions(Network(1, layers))


# half the largest float, rounded up: X + X overflows
_HALF_MAX = np.nextafter(np.finfo(float).max / 2, np.inf)


def test_a_maxout_difference_no_branch_reads_may_overflow():
    """Branch 2 reads branch 0 first, which beats it everywhere (their
    rows differ by 1e296, zero against offset -1.5e308), and branch 3 reads
    branch 1, which beats it, before either reads the other: their
    difference, which overflows, is never a row, and the net enumerates."""
    X = _HALF_MAX
    layer = Layer([[-X + 1e296], [X - 1e296], [-X], [X]], [1.5e308, 1.5e308, 0.0, 0.0], maxout(4))
    rs = enumerate_regions(Network(1, (layer,)), FeasibilityConfig(box_halfwidth=1e-3))
    assert [r.pattern for r in rs.regions] == [((0,),), ((1,),)]


def test_an_earlier_units_budget_comes_before_a_later_units_overflow():
    """Units are cut one at a time, so unit 0 exhausts the budget before
    unit 1's branch difference, which overflows, is read."""
    layer = Layer([[1.0], [-1.0], [-_HALF_MAX], [_HALF_MAX]], [0.0] * 4, maxout(2))
    net = Network(1, (layer,))
    with pytest.raises(RegionBudgetError, match="layer 0, unit 0"):
        enumerate_regions(net, FeasibilityConfig(box_halfwidth=1.0, region_cap=1))
    with pytest.raises(EnumerationError, match="overflow at layer 0"):
        enumerate_regions(net, FeasibilityConfig(box_halfwidth=1.0, region_cap=10))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("net, half", [
    # the map and forward both overflow to inf at the witness
    (Network(2, (Layer([[1e308, 1e308]], [0.0]),)), 1e3),
    # the maps are finite; only forward's branch 0 overflows at a witness
    (Network(1, (Layer([[-_HALF_MAX + 1e296], [_HALF_MAX - 1e296], [-_HALF_MAX], [_HALF_MAX]],
                       [1.5e308, 1.5e308, 0.0, 0.0], maxout(4)),)), 1.0),
], ids=["map-and-forward", "forward-only"])
def test_an_overflowing_forward_pass_is_a_float_overflow(net, half):
    """The drift check's forward pass runs under the enumerator's overflow
    rule: an ``EnumerationError``, no warnings and no drift of NaN."""
    with pytest.raises(EnumerationError, match="^float overflow in the drift check's forward"):
        enumerate_regions(net, FeasibilityConfig(box_halfwidth=half))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_map_that_overflows_at_its_witness_is_a_float_overflow():
    """Forward is finite at every witness, but region 1|1's map and drift
    bound overflow at its witness, where ``inf <= 1e-9 * inf`` would hold:
    an ``EnumerationError`` naming the region, with no warning."""
    net = Network(1, (Layer([[1e305]], [-5e307]), Layer([[3.0]], [0.0])))
    with pytest.raises(EnumerationError,
                       match=r"^float overflow in the drift check on region 1\|1$"):
        enumerate_regions(net)


def _in_box(box, normals, offsets):
    """The system behind the rows of ``box``, in cell order."""
    root = regions._root_cell(box)
    return np.vstack([root.normals, normals]), np.concatenate([root.offsets, offsets])


def _boxed(normals, offsets, half=2.0):
    """The system behind the box rows of [-half, half]^n0, in cell order."""
    return _in_box(((-half, half),) * np.shape(normals)[1], normals, offsets)


def _exactly_inside(normals, offsets, point):
    """Whether the point (floats or Fractions) satisfies every strict row
    in exact arithmetic."""
    x = [Fraction(v) for v in point]
    return all(Fraction(o) - sum(Fraction(a) * v for a, v in zip(row, x)) > 0
               for row, o in zip(normals.tolist(), offsets.tolist()))


def test_exact_strictly_feasible():
    ok, point = exact_strictly_feasible(
        *_boxed(np.array([[-1.0, 0.0], [0.0, -1.0], [1.0, 1.0]]), np.array([0.0, 0.0, 1.0]))
    )
    assert ok
    x = [float(v) for v in point]
    assert x[0] > 0 and x[1] > 0 and x[0] + x[1] < 1
    bad, none = exact_strictly_feasible(*_boxed(np.array([[1.0], [-1.0]]), np.array([0.0, -1.0])))
    assert not bad and none is None
    # a zero row with offset 0 (0 < 0) moves no vertex but empties the system
    assert not exact_strictly_feasible(*_boxed(np.zeros((1, 2)), np.zeros(1)))[0]


def test_exact_check_finishes_in_4d():
    # twelve planes through one point, offsets rounded: the exact system is
    # a sliver of slack ~1e-26, where the LP reads t = -0.0.  20 rows in 4-d
    # is a borderline cell of an ordinary 4-d net; the check must finish.
    rng = np.random.default_rng(7)
    A = rng.normal(size=(12, 4))
    A /= np.linalg.norm(A, axis=1, keepdims=True)
    normals, offsets = _boxed(A, A @ (1e-9 * rng.normal(size=4)), half=1.0)
    ok, point = exact_strictly_feasible(normals, offsets)
    assert ok and _exactly_inside(normals, offsets, point)


def test_exact_check_needs_the_box_rows():
    with pytest.raises(ValueError, match="rows of a box"):
        exact_strictly_feasible(np.array([[-1.0], [1.0], [1.0]]), np.array([0.0, 1.0, 2.0]))


# Fraction of every element of a float array, as an object array: exact.
_fraction = np.frompyfunc(Fraction, 1, 1)


def reference_exact_strictly_feasible(normals, offsets):
    """The exact check as it ran on object arrays of Fractions: the box
    corners clipped by each further row, every new vertex interpolated
    along its edge, and an edge found by counting the vertices tight on
    the rows its ends share."""
    n0 = normals.shape[1]
    root = regions._root_cell(tuple(zip(-offsets[1:2 * n0:2], offsets[:2 * n0:2])))
    N, o = _fraction(normals), _fraction(offsets)
    V, tight = _fraction(root.vertices), root.tight
    for r in range(2 * n0, len(o)):
        s = o[r] - V @ N[r]
        if s.max() <= 0:
            return False, None
        if s.min() >= 0:
            continue
        slack, pts = s.tolist(), V.tolist()
        keep, drop, out, masks = [], [], [], []
        for i, v in enumerate(slack):
            if v < 0:
                drop.append(i)
                continue
            out.append(pts[i])
            if v > 0:
                keep.append(i)
                masks.append(tight[i])
            else:
                masks.append(tight[i] | 1 << r)
        for i in keep:
            for j in drop:
                common = tight[i] & tight[j]
                if (common.bit_count() >= n0 - 1
                        and sum(m & common == common for m in tight) == 2):
                    lam = slack[i] / (slack[i] - slack[j])
                    out.append([a + lam * (b - a) for a, b in zip(pts[i], pts[j])])
                    masks.append(common | 1 << r)
        if len(out) <= n0:
            return False, None
        V, tight = np.array(out), masks
    return True, (V.sum(axis=0) / len(V)).tolist()


_NON_DYADIC = np.array([0.1, -0.1, 1 / 3, -1 / 3, 2 / 3, 0.3, -0.7, 0.0])


def _exact_case(kind, n0, rng):
    """One system of 1 to n0+4 rows of the given kind, with its box rows."""
    m = int(rng.integers(1, n0 + 5))
    box = ((-2.0, 2.0),) * n0
    A = rng.integers(-2, 3, size=(m, n0)).astype(float)
    if kind == "parallel":          # every row parallel to the first
        A = A[:1] * rng.choice([-2.0, -1.0, 1.0, 3.0], size=(m, 1))
        b = rng.integers(-3, 4, size=m).astype(float)
    elif kind == "concurrent":      # planes through one integer point, or one step off it
        if rng.random() < 0.5:      # the last row against the others: an empty cone
            A[-1] = -A[:-1].sum(axis=0)
        b = A @ rng.integers(-1, 2, size=n0) + (rng.random(m) < 0.2)
    elif kind == "touch":           # planes through a box corner, the box on either side
        corner = rng.choice([-2.0, 2.0], size=n0)
        A[0] = rng.choice([-1.0, 1.0], size=(1,)) * np.sign(corner) * rng.integers(1, 3, n0)
        b = A @ corner
    elif kind == "non-dyadic":      # 0.1*3 != 0.3 in floats: near-concurrent slivers
        A = rng.choice(_NON_DYADIC, size=(m, n0))
        b = rng.choice(_NON_DYADIC, size=m)
    elif kind == "thin":            # a side of width 3e-7, planes through its middle
        box = ((0.1, 0.1 + 3e-7),) + ((-1.0, 1.0),) * (n0 - 1)
        A = rng.normal(size=(m, n0))
        b = A @ (np.array([0.1 + 1.5e-7] + [0.0] * (n0 - 1)) + 1e-7 * rng.normal(size=n0))
    else:                           # "huge": a box of +-1e300, offsets near 1e-300
        box = ((-1e300, 1e300),) * n0
        A = rng.normal(size=(m, n0))
        if rng.random() < 0.5:      # a cone at the origin, its emptiness up to the offsets
            A[-1] = -A[:-1].sum(axis=0)
        b = 1e-300 * rng.normal(size=m)
    if rng.random() < 0.5:          # unit rows, as the enumerator carries them
        norm = np.linalg.norm(A, axis=1, keepdims=True)
        A, b = A / np.where(norm > 0, norm, 1), b / np.where(norm[:, 0] > 0, norm[:, 0], 1)
    return _in_box(box, A, b)


EXACT_CASES = ["parallel", "concurrent", "touch", "non-dyadic", "thin", "huge"]


@pytest.mark.parametrize("n0", [1, 2, 3, 4])
@pytest.mark.parametrize("kind", EXACT_CASES)
def test_exact_clip_matches_the_fraction_clip(kind, n0):
    """The integer clip gives the Fraction clip's verdict and centroid, on
    systems that reach its exact branches; every vertex it returns is in
    lowest terms with w > 0, which bounds the growth of its integers."""
    rng = np.random.default_rng([31, n0, EXACT_CASES.index(kind)])
    verdicts = set()
    for _ in range(25):
        normals, offsets = _exact_case(kind, n0, rng)
        want = reference_exact_strictly_feasible(normals, offsets)
        assert exact_strictly_feasible(normals, offsets) == want
        hull = regions._exact_hull(normals, offsets)
        assert (hull is not None) == want[0]
        for v in hull or ():
            assert len(v) == n0 + 1 and math.gcd(*v) == 1 and v[-1] > 0
        verdicts.add(want[0])
    assert verdicts == {True, False}


def test_exact_rational_backstop_keeps_counts():
    net = build_abs_net().network
    assert count_regions(net, FeasibilityConfig(exact_rational=True)) == 4


@pytest.mark.parametrize("make, count", [
    (lambda: build_shi_layer(4), 125),
    (lambda: build_catalan_layer(4), 336),
], ids=["shi(4)", "catalan(4)"])
def test_exact_mode_counts(make, count):
    rs = enumerate_regions(*_witness_cfg(make(), exact=True))
    assert rs.count == count
    for r in rs.regions:
        assert _exactly_inside(r.normals, r.offsets, r.witness.tolist())


def test_exact_mode_witnesses_are_exactly_inside():
    # in float, the LP point of ((1,2),(0,2),(0,0)) clears t = 2.8e-14 but
    # it lies 5.5e-15 outside in exact arithmetic; ((2,0),(0,2),(0,0)), a
    # phantom of the float-composed rows, is kept by the centroid of its
    # exact vertices.  The network itself has 113 regions: this 115 counts
    # both phantoms of the float-composed rows
    rs = enumerate_regions(*_witness_cfg(build_maxout_cones(2, 3, 3), exact=True))
    for r in rs.regions:
        assert _exactly_inside(r.normals, r.offsets, r.witness.tolist())
    assert rs.count == 115


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


def _oracle_reference(net, box, resolution):
    """Every grid point's pattern row, walked one grid line (``resolution``
    points) at a time, and the distinct rows of all of them counted by one
    ``np.unique``, each row read as one mixed-radix number (column j's
    radix is its largest entry plus one)."""
    axes = [lo + (hi - lo) / resolution * (np.arange(resolution) + regions._GRID_OFFSET)
            for lo, hi in box]
    X = np.column_stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")])
    rows = np.concatenate([pattern_matrix(net, line)
                           for line in np.split(X, len(X) // resolution)]).astype(np.int64)
    radix = rows.max(axis=0) + 1
    assert rows.min() >= 0 and np.prod(radix.astype(float)) < 2.0 ** 62
    return int(np.unique(rows @ np.cumprod(np.r_[1, radix[:-1]])).shape[0])


@pytest.mark.parametrize("n0, resolution", [
    (1, 400), (1, 65537),
    # 2-d grids of 65025, 65536, 66049 and 160000 points: 20 to 147 blocks of 1092-3276
    (2, 255), (2, 256), (2, 257), (2, 400),
])
# a rank-129 layer's states are intp and a rank-2 layer's int8: their rows are intp
@pytest.mark.parametrize("rank", [1, 2, 3, (129, 2)],
                         ids=["rectifier", "maxout2", "maxout3", "maxout129+2"])
def test_oracle_counts_rows_like_one_batch(rank, n0, resolution):
    net = _random_net([23, *np.ravel(rank), n0], n0, (5, 4), rank)
    box = ((-3.0, 3.0),) * n0
    count = oracle_count_by_grid(net, box, resolution)
    assert count == _oracle_reference(net, box, resolution)
    assert count > 5


# Blocks of 7 points split every grid line, so a run of equal rows crosses
# block edges; a 2-d grid of 10**6 points in such blocks is left out for time.
EDGE_CASES = [(n0, resolution, block) for n0 in (1, 2) for resolution in (97, 401, 1000)
              for block in (None, 7) if not (n0 == 2 and resolution == 1000 and block)]


@pytest.mark.parametrize("n0, resolution, block", EDGE_CASES,
                         ids=[f"{n0}d-{r}-{'block7' if b else 'default'}"
                              for n0, r, b in EDGE_CASES])
@pytest.mark.parametrize("rank", [1, 3], ids=["rectifier", "maxout3"])
def test_oracle_counts_rows_like_one_unique_across_block_edges(monkeypatch, rank, n0,
                                                               resolution, block):
    net = _random_net([31, rank, n0], n0, (5, 4), rank)
    sizes = []
    inner = regions.pattern_matrix

    def walked(net, X):
        sizes.append(len(X))
        return inner(net, X)

    monkeypatch.setattr(regions, "pattern_matrix", walked)
    if block:  # the widest layer has 5 * rank rows
        monkeypatch.setattr(regions, "_GRID_BLOCK_VALUES", block * 5 * rank)
    box = ((-3.0, 3.0),) * n0
    count = oracle_count_by_grid(net, box, resolution)
    assert count == _oracle_reference(net, box, resolution)
    assert count > 5
    want = block or regions._GRID_BLOCK_VALUES // (5 * rank)
    assert set(sizes[:-1]) <= {want} and 0 < sizes[-1] <= want
    assert sum(sizes) == resolution ** n0


def test_oracle_memory_does_not_grow_with_resolution():
    # one batch of the 10^6 points peaks at ~280 MB; a block stays near 0.8 MB
    net = _random_net(29, 2, (8, 8))
    tracemalloc.start()
    try:
        oracle_count_by_grid(net, ((-2.0, 2.0), (-2.0, 2.0)), 1000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2 ** 20


@pytest.mark.parametrize("normals, offsets, count, maximum", [
    ([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], [0.0, 0.0, 1.0], 7, 7),  # general position
    ([[1.0, 0.0], [2.0, 0.0]], [0.0, 1.0], 3, 4),                     # parallel
    ([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], [0.0, 0.0, 0.0], 6, 7),  # concurrent
], ids=["general", "parallel", "concurrent"])
def test_count_reaches_the_maximum_only_in_general_position(normals, offsets, count,
                                                             maximum):
    """Lines normal . x = offset, in a box that holds every vertex: only the
    arrangement in general position reaches the binomial-sum maximum."""
    W = np.array(normals)
    net = Network(2, (Layer(W, -np.array(offsets), ACT_RECTIFIER),))
    assert count_regions(net, FeasibilityConfig(box_halfwidth=10.0)) == count
    assert shallow_max_regions(2, len(W)) == maximum


def _max_slack_lp(normals, offsets) -> float:
    """Reference: max t s.t. normals@x + t <= offsets.  Rows are
    unit-normalized, so t* is the Chebyshev radius (negative if empty).
    HiGHS runs at its tightest tolerances: at its default 1e-7 it reports
    t* = 1.1e-7 for a slab 1.5e-7 wide."""
    m, n = normals.shape
    c = np.zeros(n + 1)
    c[-1] = -1.0
    A = np.hstack([normals, np.ones((m, 1))])
    tight = {"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10}
    res = linprog(c, A_ub=A, b_ub=offsets, bounds=[(None, None)] * (n + 1), method="highs",
                  options=tight)
    assert res.status == 0
    return float(res.x[n])


def _integer_rows(data, max_rows):
    """Random integer rows in 1-4 dimensions; zero rows are kept, the
    others unit-normalized so that the LP slack is scale-free."""
    m = data.draw(st.integers(min_value=1, max_value=max_rows))
    n = data.draw(st.integers(min_value=1, max_value=4))
    ints = st.integers(min_value=-3, max_value=3)
    rows = np.array([[data.draw(ints) for _ in range(n)] for _ in range(m)], float)
    keep = np.linalg.norm(rows, axis=1) > 0
    rows[keep] /= np.linalg.norm(rows[keep], axis=1, keepdims=True)
    return rows


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_exact_feasibility_agrees_with_lp(data):
    """On small integer systems the rational decision matches the LP
    whenever the LP's optimum is comfortably signed."""
    rows = _integer_rows(data, 4)
    offs = np.array([data.draw(st.integers(min_value=-3, max_value=3)) for _ in rows], float)
    rows, offs = _boxed(rows, offs, half=data.draw(st.sampled_from([1.0, 4.0, 10.0])))
    feasible, witness = exact_strictly_feasible(rows, offs)
    if feasible:
        w = np.array([float(v) for v in witness])
        assert (rows @ w < offs + 1e-12).all()
        assert _exactly_inside(rows, offs, witness)
    else:
        assert _max_slack_lp(rows, offs) <= 1e-9


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_feasible_child_keeps_what_the_lp_keeps(data):
    """Without vertices, a child is decided by the exact clip alone: it is
    kept iff the LP's Chebyshev radius exceeds FEAS_TOL, also for offsets
    within a few FEAS_TOL of an integer."""
    rows = _integer_rows(data, 6)
    # in half the systems every offset is near 0: rows that span around the
    # origin then cut out a sliver whose radius is a few FEAS_TOL
    coarse = data.draw(st.sampled_from([0, 1]))
    steps = st.sampled_from([-2, -1, -0.5, 0, 0.5, 1, 2])
    offs = np.array([coarse * data.draw(st.integers(min_value=-3, max_value=3))
                     + data.draw(steps) * 1e-7 for _ in rows])
    rows, offs = _boxed(rows, offs, half=data.draw(st.sampled_from([1.0, 4.0, 10.0])))
    cfg = FeasibilityConfig()
    t = _max_slack_lp(rows, offs)
    assume(abs(t - regions.FEAS_TOL) >= 1e-9)
    got = regions._feasible_child(rows, offs, None, np.zeros(rows.shape[1]), cfg)
    assert (got is not None) == (t > regions.FEAS_TOL)
    if got is not None:
        pulled = np.array([Fraction(o) - Fraction(regions.FEAS_TOL) for o in offs.tolist()])
        assert _exactly_inside(rows, pulled, got.tolist())
