"""Exact enumeration of the linear regions of a small network.

The enumerator walks the stack layer by layer.  Every region is an open
polyhedron of the input box, carried as strict inequalities
``normal . x < offset`` (rows unit-normalized), together with the
activation pattern that produced it, its vertices, and an interior witness
point.  Each live cell carries the map ``(A, c)`` into the current layer's
inputs.  Per cell and layer, one stacked product gives every unit's rows
(``_unit_children`` normalizes them in one stacked step), and one
``network._layer_step`` on the stack of the children's patterns their maps,
bit for bit as lone products; one batch checks every map at its witness.

A unit cuts a cell where two of its pieces tie: a rectifier (its
pre-activation against zero) along one hyperplane, into an active and an
inactive child; a rank-k maxout unit into k children, one per branch, by
the k-1 strict dominance inequalities.  A child survives iff its
Chebyshev radius (the largest ball inside it) exceeds ``FEAS_TOL``.

Every cell carries its vertices (the box corners at the root), each with
a bitmask of the rows tight there.  ``_try_extend`` decides every child,
of either unit kind, one new row at a time on the vertices the rows
before it left: the row leaves the child empty (every vertex misses it by
more than 10*FEAS_TOL) or flat, cuts nothing, or goes to ``_clip``, which
cuts in a double-description step: kept vertices stay, and each edge from
a kept to a dropped vertex gives one new vertex on the hyperplane.  A
child whose new rows every vertex clears by more than 10*FEAS_TOL keeps
the parent's vertices, masks and witness, if that witness clears each by
more than ``FEAS_TOL``.  Otherwise its witness is the centroid of its
vertices: if the centroid's smallest slack, a lower bound on the Chebyshev
radius, exceeds ``FEAS_TOL``, the child survives.
The rest (thin children, and children whose clip degenerated, which carry
no vertices) are decided by the same clip run exactly from the box
corners, on the rows pulled in by ``FEAS_TOL``.  A float is a dyadic rational, so that
clip runs in integer homogeneous coordinates: each row is scaled to
integers, each vertex is an integer vector (X, w) in lowest terms with
w > 0, and only the sign of a slack is read.  The child survives iff
that system is non-empty, and its witness is the rounded centroid of the
exact vertices, kept only if its exact slack exceeds ``FEAS_TOL``.  The
final cells hand their vertices to their regions, and the 2-d polygons
are read from them.

In exact mode the margin is 0: a child survives iff it is non-empty in
exact arithmetic with its witness strictly inside every row.

Counts depend on the box: cells that only exist beyond it are not seen.
Constructed witnesses whose predicted counts are exact therefore carry
the box on which exactness holds.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import network
from .network import Network, _layer_step, _stack_slots, forward, pattern_code, pattern_matrix

Box = tuple[tuple[float, float], ...]

# Smallest normalized slack that counts as full-dimensional.
FEAS_TOL = 1e-7


class RegionBudgetError(RuntimeError):
    """Region cap exceeded at ``where``; ``partial_count`` holds the count so far."""

    def __init__(self, partial_count: int, cap: int, where: str):
        super().__init__(f"region budget exhausted: more than {cap} regions "
                         f"({partial_count} held) at {where}")
        self.partial_count, self.cap, self.where = partial_count, cap, where


class EnumerationError(RuntimeError):
    """Numerical failure while subdividing; carries the region's pattern."""


@dataclass(frozen=True)
class FeasibilityConfig:
    """Knobs of the subdivision.

    box_halfwidth  enumeration happens inside [-B, B]^n0 unless ``box``
                   overrides it with explicit per-dimension bounds
    region_cap     hard limit on live regions
    exact_rational count every cell whose float-composed rows are non-empty
                   in exact arithmetic: the exact clip of a thin child keeps
                   it at margin 0, not at FEAS_TOL (exact for those rows,
                   not for the network, whose cell may be empty)
    """

    box_halfwidth: float = 1e3
    region_cap: int = 10**6
    exact_rational: bool = False
    box: Box | None = None

    def resolved_box(self, n0: int) -> Box:
        if self.box is None:
            B = float(self.box_halfwidth)
            box = ((-B, B),) * n0
        else:
            box = tuple((float(lo), float(hi)) for lo, hi in self.box)
            if len(box) != n0:
                raise ValueError(f"box has {len(box)} dimensions, network has {n0}")
        for lo, hi in box:
            if not math.isfinite(hi - lo):
                raise ValueError(f"box side [{lo:g}, {hi:g}] is not finite")
            if not hi - lo > 2 * FEAS_TOL:
                raise ValueError(f"box side [{lo:g}, {hi:g}] is not wider than "
                                 f"2*feas_tol = {2 * FEAS_TOL:g}")
        return box


@dataclass(frozen=True, eq=False)
class Region:
    """One open cell: {x : normals @ x < offsets}, with a witness strictly
    inside and the affine map the net applies on it."""

    normals: np.ndarray        # (m, n0), unit rows
    offsets: np.ndarray        # (m,)
    pattern: tuple             # per-layer tuples of unit states
    affine: network.AffineMap  # input -> activations of the last processed layer
    witness: np.ndarray
    vertices: np.ndarray | None = None  # (k, n0), None if the clip degenerated
    tight: list[int] | None = None      # per vertex, bit j: cut on row j (see _Cell)


@dataclass(frozen=True)
class RegionSet:
    regions: tuple[Region, ...]
    box: Box

    @property
    def count(self) -> int:
        return len(self.regions)


# ---------------------------------------------------------------------------
# feasibility: vertex centroids, with the exact clip as backstop

_ZERO_ROW = 1e-12


# Fraction of every element of a float array, as an object array: exact.
_fraction = np.frompyfunc(Fraction, 1, 1)


def _homogeneous(values) -> list[int]:
    """Floats times their largest denominator, a power of two: integers in
    the same ratios, so a row or a point in homogeneous coordinates."""
    ratios = [v.as_integer_ratio() for v in values]
    d = max(q for _, q in ratios)
    return [p * (d // q) for p, q in ratios]


def _lowest(v) -> tuple[int, ...]:
    """A homogeneous vector divided by the gcd of its entries."""
    g = math.gcd(*v)
    return tuple(c // g for c in v)


def _exact_hull(normals, offsets) -> list | tuple | None:
    """The exact vertices behind ``exact_strictly_feasible``, or None when
    a row leaves no full-dimensional polytope.  A vertex is a tuple (X, w)
    of integers with gcd 1 and w > 0, the point X / w; its slack on a row
    scaled to integers ``(-normal, offset)`` is a dot product, and only its
    sign is read.  The new vertex on edge i-j is ``S_i V_j - S_j V_i``
    (slacks S_i > 0 > S_j), reduced by its gcd."""
    normals, offsets = np.atleast_2d(normals), np.atleast_1d(offsets)
    n0 = normals.shape[1]
    box = tuple(zip((-offsets[1:2 * n0:2]).tolist(), offsets[:2 * n0:2].tolist()))
    box_rows, V, tight = _box_corners(box)
    if not (np.array_equal(normals[:2 * n0], box_rows)
            and all(lo < hi for lo, hi in box)):
        raise ValueError("rows 0..2*n0-1 must be the rows of a box")
    rows = (-normals[2 * n0:]).tolist()
    for r, (row, off) in enumerate(zip(rows, offsets[2 * n0:].tolist()), 2 * n0):
        h = _homogeneous(row + [off])
        S = [sum(map(operator.mul, h, v)) for v in V]
        if max(S) <= 0:  # empty, or no longer full-dimensional
            return None
        if min(S) < 0:
            kept, edges, tight = _cut(S, tight, n0, 1 << r, 0)
            if len(kept) + len(edges) <= n0:
                return None
            V = [V[i] for i in kept] + [
                _lowest([S[i] * q - S[j] * p for p, q in zip(V[i], V[j])]) for i, j in edges]
    return V


@functools.lru_cache(maxsize=64)
def _box_corners(box: Box) -> tuple:
    """The rows, exact corners and masks of ``_root_cell(box)``, as tuples."""
    root = _root_cell(box)
    V = tuple(_lowest(_homogeneous(c + [1.0])) for c in root.vertices.tolist())
    return tuple(map(tuple, np.array(root.normals).tolist())), V, tuple(root.tight)


def exact_strictly_feasible(normals, offsets) -> tuple[bool, list | None]:
    """Exact strict feasibility of {x : normals@x < offsets}, for float
    rows whose first 2*n0 are those of a box in ``_root_cell`` order.

    The box corners are clipped by every other row in the order given, in
    integer homogeneous coordinates, with no tolerance; the system is
    feasible iff no clip leaves an empty or flat polytope.  Returns
    (feasible, the centroid of the exact vertices as Fractions, strictly
    inside every row, or None).  The order changes no answer, only the
    time: rows that empty the polytope early are best first.
    """
    V = _exact_hull(normals, offsets)
    if V is None:
        return False, None
    return True, [sum(Fraction(v[i], v[-1]) for v in V) / len(V) for i in range(len(V[0]) - 1)]


def _feasible_child(normals, offsets, V, anchor, cfg: FeasibilityConfig):
    """A witness strictly inside the strict system, or None when its
    Chebyshev radius is at most ``FEAS_TOL`` (in exact mode: when it is
    empty in exact arithmetic).

    The witness is the centroid of the child's vertices ``V`` when its
    smallest slack exceeds ``FEAS_TOL``.  Otherwise the exact clip decides
    the system with every row pulled in by the margin, and the rounded
    exact centroid is kept if its exact slack exceeds the margin.  Rows
    tightest at ``anchor`` (the parent's witness) go first: they empty the
    clip soonest.
    """
    if V is not None:
        w = V.sum(axis=0) / len(V)
        if (offsets - normals @ w).min() > FEAS_TOL:
            return w
    margin = 0.0 if cfg.exact_rational else FEAS_TOL
    key = offsets - normals @ anchor
    key[:2 * normals.shape[1]] = -np.inf
    order = np.argsort(key, kind="stable")
    ok, point = exact_strictly_feasible(normals[order], offsets[order] - margin)
    if not ok:
        return None
    w = np.array([float(v) for v in point])
    slack = (_fraction(offsets) - _fraction(normals) @ _fraction(w)).min()
    return w if slack > margin else None


# ---------------------------------------------------------------------------
# subdivision

@dataclass(slots=True, eq=False)
class _Cell:
    normals: list               # 1-d arrays (unit rows)
    offsets: list               # floats
    pattern: list               # per-layer tuples, then the states of this layer
    witness: np.ndarray
    # Vertices of the closed cell, (k, n0), or None once a clip has
    # degenerated: the cell and its descendants then rely on the exact
    # clip alone.
    vertices: np.ndarray | None
    # Per vertex, a bitmask of the rows tight there: bit j is set iff
    # the vertex lies on row j.  A row that cuts nothing off sets no
    # bit, so a clip that drops no vertex hands the parent's vertices
    # and masks to the child unchanged.
    tight: list[int] | None
    tol: float | None  # ``_plane_tol`` of the vertices, taken where they are made


# A vertex within this distance of a cutting plane, relative to the largest
# vertex coordinate, lies on it.  Far above the rounding of the slacks, far
# below the 10*FEAS_TOL margin of the emptiness proof.
_ON_PLANE = 1e-11


def _root_cell(box: Box) -> _Cell:
    """The whole box as a cell: row 2i is x_i < hi_i, row 2i+1 is
    -x_i < -lo_i, and each corner's mask names the rows tight there."""
    n0 = len(box)
    normals, offsets = [], []
    for i, (lo, hi) in enumerate(box):
        up, down = np.zeros(n0), np.zeros(n0)
        up[i], down[i] = 1.0, -1.0
        normals += [up, down]
        offsets += [hi, -lo]
    V = np.array(list(itertools.product(*box)), float)
    # in the order of the corners: lo sets bit 2i+1, hi bit 2i
    tight = [sum(bits) for bits in itertools.product(*((2 << 2 * i, 1 << 2 * i)
                                                       for i in range(n0)))]
    return _Cell(normals, offsets, [], V.mean(axis=0), V, tight, _plane_tol(V))


def _plane_tol(V) -> float:
    return _ON_PLANE * max(1.0, float(np.abs(V).max()))


def _cut(slack, tight, n, bit, tol):
    """The double-description step of both clips on the vertex slacks
    ``slack``: a vertex within ``tol`` of the plane is kept and gains the
    row's ``bit``, one beyond it outside is dropped.  Returns the indices
    of the kept vertices, the (inside, dropped) pairs of the edges that
    cross the plane, which share n-1 tight rows that no third vertex is
    tight on, and the masks of the kept vertices, then of the new ones."""
    inside, drop, kept, masks = [], [], [], []
    for i, v in enumerate(slack):
        if v < -tol:
            drop.append(i)
            continue
        kept.append(i)
        if v > tol:
            inside.append(i)
            masks.append(tight[i])
        else:
            masks.append(tight[i] | bit)
    edges = []
    for i in inside:
        for j in drop:
            common = tight[i] & tight[j]
            if common.bit_count() < n - 1:
                continue
            on = 0  # vertices tight on common: i, j, and a third ends the scan
            for m in tight:
                if m & common == common:
                    on += 1
                    if on > 2:
                        break
            else:
                edges.append((i, j))
                masks.append(common | bit)
    return kept, edges, masks


def _clip(V, tight, s, r, tol):
    """Cut the polytope with float vertices ``V`` by ``row . x <= off``,
    the cell's row ``r``, in one double-description step; ``s`` is the
    slack ``off - V @ row`` of the vertices, some of them more than ``tol``
    inside the plane and some more than ``tol`` beyond it.

    Returns the child's (vertices, tight, tol), all None when the cut leaves
    no full-dimensional polytope.  A new vertex is interpolated along its
    edge; a vertex within ``tol`` of the plane lies on it."""
    n = V.shape[1]
    slack, pts = s.tolist(), V.tolist()
    kept, edges, masks = _cut(slack, tight, n, 1 << r, tol)
    if len(kept) + len(edges) <= n:
        return None, None, None
    out = [pts[i] for i in kept]
    for i, j in edges:
        lam = slack[i] / (slack[i] - slack[j])
        out.append([a + lam * (b - a) for a, b in zip(pts[i], pts[j])])
    out = np.array(out)
    return out, masks, _plane_tol(out)


def _try_extend(cell: _Cell, state, new_rows, cfg) -> _Cell | None:
    """The child of ``cell`` cut out by the strict rows ``new_rows``, with
    ``state`` appended to its pattern, or None when it is empty.

    Each new row in turn reads the slack of the vertices the rows before it
    left.  If every vertex misses the row by more than 10*FEAS_TOL, the
    child is empty; if none clears it by more than ``_plane_tol``, the
    child is flat and loses its vertices; if none lies beyond that, the row
    cuts nothing; otherwise ``_clip`` cuts.  If every vertex clears every
    new row by more than 10*FEAS_TOL and the parent's witness clears each
    by more than FEAS_TOL, the child is the whole cell: it keeps the
    parent's vertices, masks and witness.  ``_feasible_child`` decides the
    rest, on the child's rows, which are built once, here.
    """
    V, tight, tol = cell.vertices, cell.tight, cell.tol
    cleared = 0  # rows that every vertex clears by more than 10*FEAS_TOL
    for j, (row, off) in enumerate(new_rows):
        if V is None:
            break
        s = off - V @ row
        sl = s.tolist()
        lo, hi = min(sl), max(sl)  # on a few floats, faster than numpy
        if hi < -10 * FEAS_TOL:
            return None
        if hi <= tol:
            V = tight = tol = None
        elif lo < -tol:
            V, tight, tol = _clip(V, tight, s, len(cell.offsets) + j, tol)
        else:
            cleared += lo > 10 * FEAS_TOL
    normals = cell.normals + [r for r, _ in new_rows]
    offsets = cell.offsets + [o for _, o in new_rows]
    whole = cleared == len(new_rows) and min(
        (off - row @ cell.witness for row, off in new_rows), default=math.inf) > FEAS_TOL
    witness = cell.witness if whole else _feasible_child(
        np.array(normals), np.array(offsets), V, cell.witness, cfg)
    if witness is None:
        return None
    return _Cell(normals, offsets, cell.pattern + [state], witness, V, tight, tol)


def _unit_children(G, D):
    """Yield per unit j, in turn, the (state, new rows) of its children on a
    parent cell where its branch rows and offsets are ``G[j]``, ``D[j]``.
    The rows, ``-G[j, 0]`` (offset ``D[j, 0]``) of a rectifier's active side
    and ``G[j, s] - G[j, t]`` (``D[j, t] - D[j, s]``) of maxout branch t, are
    normalized at once: each squared norm is the ``ddot`` of
    ``np.linalg.norm`` on the lone row at its alignment, a maxout row's in
    an aligned slot, a rectifier's in G.  A maxout difference that
    overflows raises when its branch reads it, as the lone rows did."""
    width, k, n0 = G.shape
    if k == 1:  # a rectifier's row: normed where it lies in G, negated below
        R = G[:, :, None]
        col = R[..., None]
    else:
        slots = _stack_slots((width, k, k), n0)
        R, col = slots[..., 0], slots  # row s of branch t of unit j: R[j, t, s]
        try:  # enumerate_regions makes overflow raise
            np.subtract(G[:, None], G[:, :, None], out=R)
            O = D[:, :, None] - D[:, None]
        except FloatingPointError:  # mark the pairs; a branch that reads one raises
            with np.errstate(over="ignore"):
                np.subtract(G[:, None], G[:, :, None], out=R)
                O = D[:, :, None] - D[:, None]
            over = np.isinf(R).any(axis=-1) | np.isinf(O)
            R[over], O[over] = 0.0, np.nan
    try:
        norms = np.sqrt((col.swapaxes(-1, -2) @ col)[..., 0, 0])
    except FloatingPointError:  # the squares overflow: rescale, only here
        with np.errstate(over="ignore"):
            norms = np.sqrt((col.swapaxes(-1, -2) @ col)[..., 0, 0])
            for i in zip(*np.nonzero(np.isinf(norms))):
                top = np.abs(R[i]).max()
                norms[i] = top * np.linalg.norm(R[i] / top)
    safe = np.maximum(norms, _ZERO_ROW)[..., None]  # a zero row is never read
    if k == 1:  # a zero row: the bias's sign decides, 0 inactive; else the active side first
        inactive = (R / safe)[:, 0, 0]
        for row, neg, ((norm,),), off in zip(-inactive, inactive, norms.tolist(), D[:, 0].tolist()):
            yield ([(int(off > 0), [])] if norm < _ZERO_ROW * max(1.0, abs(off))
                   else [(1, [(row, off / norm)]), (0, [(neg, -off / norm)])])
        return
    np.divide(R, safe, out=R)
    for j, (unit, offs) in enumerate(zip(norms.tolist(), O.tolist())):
        children = []
        for t in range(k):
            rows = []
            for s in range(k):  # s = t: a zero row with offset 0, which never beats t
                norm, off = unit[t][s], offs[t][s]
                if norm >= _ZERO_ROW * max(1.0, abs(off)):
                    rows.append((R[j, t, s], off / norm))
                elif off < 0 or (off == 0 and s < t):
                    break  # s beats t everywhere; identical branches: the lower index wins
                elif off != off:  # a marked pair
                    raise FloatingPointError("overflow encountered in subtract")
            else:
                children.append((t, rows))
        yield children


def _subdivide_cell(cell: _Cell, net: Network, index: int, cfg, held: int,
                    A, c0) -> list[tuple]:
    """Push one cell, where the layer's inputs are ``A x + c0``, through
    every unit of layer ``index``.  ``held`` live cells lie outside this
    one; with them, every child created counts against ``cfg.region_cap``.
    Returns each child with its map: item i of one ``_layer_step`` of
    ``(A, c0)`` on the stack of the children's patterns.  ``_unit_children``
    turns item j of one stacked product, unit j's branch rows, into children;
    numpy's matmul runs each stacked item as the lone product: no bit moves."""
    cells = [cell]
    layer = net.layers[index]
    k = layer.activation.rank
    # one map holds on every cell here: unit j's rows and offsets are G[j], D[j]
    W = layer.weights.reshape(layer.width, k, -1)
    G, D = W @ A, W @ c0 + layer.bias.reshape(layer.width, k)
    fixed = len(cell.pattern)  # layers whose states are tuples already
    for j, children in enumerate(_unit_children(G, D)):
        nxt = []
        for i, c in enumerate(cells):
            for state, new_rows in children:
                child = _try_extend(c, state, new_rows, cfg)
                if child is None:
                    continue
                nxt.append(child)
                live = held + len(nxt) + len(cells) - i - 1
                if live > cfg.region_cap:
                    code = pattern_code(c.pattern[:fixed] + [c.pattern[fixed:]])
                    raise RegionBudgetError(live, cfg.region_cap,
                                            f"layer {index}, unit {j}, cell '{code}'")
                # rank 1 or 2: once one child keeps the whole cell, the other is
                # empty; a higher-rank sibling may be clipped by another row first
                # and, in a box as wide as 1e12, still be found by the exact clip
                if k <= 2 and child.witness is c.witness:
                    break
        cells = nxt
        if not cells:
            raise EnumerationError(
                f"no feasible child at layer {index}, unit {j}, cell "
                f"'{pattern_code(cell.pattern)}'; numerical collapse"
            )
    for c in cells:  # fix the layer's pattern; every cell here is new
        c.pattern = c.pattern[:fixed] + [tuple(c.pattern[fixed:])]
    As, Cs = _layer_step(layer, np.array([c.pattern[-1] for c in cells]), A, c0)
    return list(zip(cells, As, Cs))


def enumerate_regions(net: Network, cfg: FeasibilityConfig | None = None) -> RegionSet:
    """All full-dimensional activation cells of ``net`` inside the box,
    sorted by pattern.  See the module docstring for the algorithm."""
    cfg = cfg or FeasibilityConfig()
    n0 = net.input_dim
    if n0 > 4:
        raise ValueError("enumeration supports input dimension <= 4")
    box = cfg.resolved_box(n0)

    cells = [(_root_cell(box), *network._origin(n0))]  # (cell, A, c)
    with np.errstate(over="raise"):  # an overflowing map is an error, not an inf
        try:
            for index in range(net.depth):
                done: list[tuple] = []
                for i, (c, A, c0) in enumerate(cells):
                    done += _subdivide_cell(c, net, index, cfg,
                                            len(done) + len(cells) - i - 1, A, c0)
                cells = done
        except FloatingPointError:
            raise EnumerationError(f"float overflow at layer {index}, "
                                   f"cell '{pattern_code(c.pattern)}'") from None
        # each map against one batch forward pass at its witness; rounding in
        # both grows with the magnitude of the terms summed, as the bound does
        X = np.array([c.witness for c, _, _ in cells])
        try:
            H = forward(net, X)[-1]
        except FloatingPointError:
            raise EnumerationError("float overflow in the drift check's forward pass") from None
    As, Cs = np.array([A for _, A, _ in cells]), np.array([c0 for _, _, c0 in cells])
    with np.errstate(all="ignore"):  # a map or bound that overflows has its own verdict
        scale = np.abs(Cs).max(axis=1) + np.abs(As).sum(axis=2).max(axis=1) * np.abs(X).max(axis=1)
        mapped = (As @ X[..., None])[..., 0] + Cs
        drift = np.abs(mapped - H.T).max(axis=1)
    over = ~np.isfinite(np.column_stack([mapped, scale])).all(axis=1)
    failed = over | ~(drift <= 1e-9 * np.maximum(1.0, scale))  # a NaN drift fails too
    if failed.any():
        i = int(failed.argmax())
        what = ("float overflow in the drift check" if over[i]
                else f"affine map drifted ({drift[i]:.2e})")
        raise EnumerationError(f"{what} on region {pattern_code(cells[i][0].pattern)}")
    regions = [Region(normals=np.array(c.normals), offsets=np.array(c.offsets),
                      pattern=tuple(c.pattern), affine=network.AffineMap._of(A, c0),
                      witness=np.asarray(c.witness, float), vertices=c.vertices, tight=c.tight)
               for c, A, c0 in cells]
    regions.sort(key=lambda r: r.pattern)
    return RegionSet(tuple(regions), box)


def count_regions(net: Network, cfg: FeasibilityConfig | None = None) -> int:
    """Number of full-dimensional activation cells inside the box."""
    return enumerate_regions(net, cfg).count


# ---------------------------------------------------------------------------
# independent grid oracle

# Fractional position of the sample inside each grid cell.  A half-step
# (cell midpoints) looks natural but lands exactly on breakpoints whenever
# the resolution is odd and the box is symmetric -- e.g. 401 cells on
# [-1, 1] puts a midpoint at 0.  The golden-ratio offset keeps samples off
# every rational breakpoint lattice, so boundary tie-breaking never leaks
# into the observed pattern count.
_GRID_OFFSET = (5.0 ** 0.5 - 1.0) / 2.0

# Floats in one array of a block (128 KB): a block holds this many over the
# rows of the widest layer (or the input) points.  In a fresh process such
# arrays come from glibc's heap, which the next block reuses; fixed blocks
# of 8,192 points were mapped afresh and returned at every block, which cost
# 9,360 minor page faults per 400x400 grid on a 2-d (8,8) net and half the
# speed.  What glibc keeps also depends on what the process freed before.
_GRID_BLOCK_VALUES = 1 << 14

# Most grid points the oracle walks: on one core of a 2-core Xeon host, a
# 2-d net of two 4-wide rectifier layers takes about 1.0 s for 2.5 * 10**7.
_GRID_LIMIT = 10**8


def oracle_count_by_grid(net: Network, box: Box, resolution: int) -> int:
    """Distinct activation patterns on a regular grid over ``box``.

    One sample per grid cell, placed at a fixed generic offset inside the
    cell (see ``_GRID_OFFSET``) so the probe stays off region boundaries,
    where tie-breaking would manufacture measure-zero patterns.  The value
    is a lower bound on the cell count over the same box, with equality
    once the grid is fine enough that every cell catches a point.  Only
    implemented for 1 or 2 input dimensions.

    The grid is walked in blocks, each point's coordinates computed from
    its indices, and a block's per-layer arrays hold at most
    ``_GRID_BLOCK_VALUES`` floats.  Time grows with the resolution, so
    grids of more than ``_GRID_LIMIT`` points are refused.  The distinct
    patterns are one set of row bytes (``network._row_bytes``): each
    block adds its rows less every row equal to the one before it.  Memory
    therefore grows with the distinct patterns only, at a bytes object of
    33 bytes plus the row (a byte per unit, eight with intp states) and
    some 20-60 bytes of set table each: about 90 bytes on a 16-unit net.
    """
    if resolution < 2:
        raise ValueError("resolution must be >= 2")
    if net.input_dim > 2:
        raise ValueError("grid oracle supports input dimension <= 2")
    if len(box) != net.input_dim:
        raise ValueError("box dimension mismatch")
    total = resolution ** net.input_dim
    if total > _GRID_LIMIT:
        raise ValueError(f"grid of {total} points exceeds the oracle's limit of "
                         f"{_GRID_LIMIT} points; use a coarser grid")
    shape = (resolution,) * net.input_dim
    widest = max(net.input_dim, *(layer.weights.shape[0] for layer in net.layers))
    block = max(1, _GRID_BLOCK_VALUES // widest)
    seen: set[bytes] = set()  # each distinct pattern row once
    for start in range(0, total, block):
        # point i has indices (i // resolution, i % resolution)
        index = np.unravel_index(np.arange(start, min(start + block, total)), shape)
        X = np.column_stack([lo + (hi - lo) / resolution * (i + _GRID_OFFSET)
                             for (lo, hi), i in zip(box, index)])
        P = pattern_matrix(net, X)
        # neighbouring points mostly share a pattern, and a row equal to the
        # one before it adds nothing to the set
        new = np.ones(len(P), bool)
        new[1:] = (P[1:] != P[:-1]).any(axis=1)
        seen.update(network._row_bytes(P[new]))
    return len(seen)


# ---------------------------------------------------------------------------
# 2-d geometry

def region_polygons_2d(rs: RegionSet) -> list[np.ndarray]:
    """Vertex lists of every region of a 2-d enumeration, aligned 1:1 with
    ``rs.regions``: the carried vertices, counterclockwise around the
    witness, each re-solved from the first non-parallel pair of its tight
    rows in row order, so its bits do not depend on the order of the clips
    that found it.  A region without vertices gets an empty polygon."""
    if rs.regions and rs.regions[0].normals.shape[1] != 2:
        raise ValueError("polygon extraction is 2-d only")
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
