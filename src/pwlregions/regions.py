"""Exact enumeration of the linear regions of a small network.

The enumerator walks the stack layer by layer.  Every region is an open
polyhedron of the input box, carried as strict inequalities
``normal . x < offset`` (rows unit-normalized), together with the affine
map the processed sub-network applies on it, the activation pattern that
produced it, its vertices, and an interior witness point with a clearance
certifying full dimension.

Each rectifier unit folds back to a single input-space hyperplane per
region; each rank-k maxout unit yields k candidate children, one per
branch, cut out by the k-1 strict dominance inequalities.  A child
survives iff its Chebyshev radius (the largest ball inside it) exceeds
``FEAS_TOL``.

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
vertices, and its clearance the centroid's smallest slack, a lower bound
on the Chebyshev radius: if that exceeds ``FEAS_TOL`` the child survives.
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

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .network import (
    AffineMap,
    Network,
    forward,
    layer_selection,
    pattern_code,
    pattern_matrix,
)

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
    exact_rational count every cell that is non-empty in exact arithmetic:
                   the exact clip of a thin child keeps it at margin 0, not
                   at FEAS_TOL
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
    """One open cell: {x : normals @ x < offsets}, with its certificate."""

    normals: np.ndarray        # (m, n0), unit rows
    offsets: np.ndarray        # (m,)
    pattern: tuple             # per-layer tuples of unit states
    affine: AffineMap          # input -> activations of the last processed layer
    witness: np.ndarray
    clearance: float                    # smallest slack of the witness over the rows
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


def _exact_hull(normals, offsets) -> list[tuple[int, ...]] | None:
    """The exact vertices behind ``exact_strictly_feasible``, or None when
    a row leaves no full-dimensional polytope.  A vertex is a tuple (X, w)
    of integers with gcd 1 and w > 0, the point X / w; its slack on a row
    scaled to integers ``(-normal, offset)`` is a dot product, and only its
    sign is read.  The new vertex on edge i-j is ``S_i V_j - S_j V_i``
    (slacks S_i > 0 > S_j), reduced by its gcd."""
    normals, offsets = np.atleast_2d(normals), np.atleast_1d(offsets)
    n0 = normals.shape[1]
    box = tuple(zip(-offsets[1:2 * n0:2], offsets[:2 * n0:2]))
    root = _root_cell(box)
    if not (np.array_equal(normals[:2 * n0], root.normals)
            and all(lo < hi for lo, hi in box)):
        raise ValueError("rows 0..2*n0-1 must be the rows of a box")
    V = [_lowest(_homogeneous(corner + [1.0])) for corner in root.vertices.tolist()]
    tight = root.tight
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
    """(witness, clearance) for the strict system, or None when its
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
        w = V.mean(axis=0)
        s = float((offsets - normals @ w).min())
        if s > FEAS_TOL:
            return w, s
    margin = 0.0 if cfg.exact_rational else FEAS_TOL
    key = offsets - normals @ anchor
    key[:2 * normals.shape[1]] = -np.inf
    order = np.argsort(key, kind="stable")
    ok, point = exact_strictly_feasible(normals[order], offsets[order] - margin)
    if not ok:
        return None
    w = np.array([float(v) for v in point])
    slack = (_fraction(offsets) - _fraction(normals) @ _fraction(w)).min()
    return (w, float(slack)) if slack > margin else None


# ---------------------------------------------------------------------------
# subdivision

@dataclass(slots=True, eq=False)
class _Cell:
    normals: list               # 1-d arrays (unit rows)
    offsets: list               # floats
    pattern: list               # per-layer tuples, then the states of this layer
    A: np.ndarray               # input -> current activations
    c: np.ndarray
    witness: np.ndarray
    clearance: float
    # Vertices of the closed cell, (k, n0), or None once a clip has
    # degenerated: the cell and its descendants then rely on the exact
    # clip alone.
    vertices: np.ndarray | None
    # Per vertex, a bitmask of the rows tight there: bit j is set iff
    # the vertex lies on row j.  A row that cuts nothing off sets no
    # bit, so a clip that drops no vertex hands the parent's vertices
    # and masks to the child unchanged.
    tight: list[int] | None


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
    clearance = min((hi - lo) / 2 for lo, hi in box)
    return _Cell(normals, offsets, [], np.eye(n0), np.zeros(n0), V.mean(axis=0), clearance,
                 V, tight)


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

    Returns the child's (vertices, tight), both None when the cut leaves no
    full-dimensional polytope.  A new vertex is interpolated along its
    edge; a vertex within ``tol`` of the plane lies on it."""
    n = V.shape[1]
    slack, pts = s.tolist(), V.tolist()
    kept, edges, masks = _cut(slack, tight, n, 1 << r, tol)
    if len(kept) + len(edges) <= n:
        return None, None
    out = [pts[i] for i in kept]
    for i, j in edges:
        lam = slack[i] / (slack[i] - slack[j])
        out.append([a + lam * (b - a) for a, b in zip(pts[i], pts[j])])
    return np.array(out), masks


def _try_extend(cell: _Cell, new_rows, cfg) -> tuple | None:
    """Feasibility of cell + new strict rows.  Returns (witness, clearance,
    vertices, tight) of the child, or None when it is empty.

    Each new row in turn reads the slack of the vertices the rows before it
    left.  If every vertex misses the row by more than 10*FEAS_TOL, the
    child is empty; if none clears it by more than ``_plane_tol``, the
    child is flat and loses its vertices; if none lies beyond that, the row
    cuts nothing; otherwise ``_clip`` cuts.  If every vertex clears every
    new row by more than 10*FEAS_TOL and the parent's witness clears each
    by more than FEAS_TOL, the child is the whole cell: it keeps the
    parent's vertices, masks and witness.  ``_feasible_child`` decides the
    rest.
    """
    V, tight = cell.vertices, cell.tight
    cleared = 0  # rows that every vertex clears by more than 10*FEAS_TOL
    for j, (row, off) in enumerate(new_rows):
        if V is None:
            break
        s = off - V @ row
        lo, hi = min(s.tolist()), max(s.tolist())  # on a few floats, faster than numpy
        if hi < -10 * FEAS_TOL:
            return None
        tol = _plane_tol(V)
        if hi <= tol:
            V = tight = None
        elif lo < -tol:
            V, tight = _clip(V, tight, s, len(cell.offsets) + j, tol)
        else:
            cleared += lo > 10 * FEAS_TOL
    if cleared == len(new_rows):
        t = [float(off - row @ cell.witness) for row, off in new_rows]
        if min(t, default=math.inf) > FEAS_TOL:
            return cell.witness, min([cell.clearance, *t]), V, tight
    normals = np.vstack([np.array(cell.normals), [r for r, _ in new_rows]])
    offsets = np.concatenate([cell.offsets, [o for _, o in new_rows]])
    got = _feasible_child(normals, offsets, V, cell.witness, cfg)
    return None if got is None else (*got, V, tight)


def _norm(v) -> float:
    """Euclidean norm; runs where ``enumerate_regions`` makes overflow raise."""
    try:
        return float(np.linalg.norm(v))
    except FloatingPointError:  # the squares overflow: rescale, only here
        m = float(np.abs(v).max())
        return m * float(np.linalg.norm(v / m))


def _rectifier_children(g, d):
    """(state, new rows) of the children of one rectifier unit on one
    cell, the active child first."""
    norm = _norm(g)
    if norm < _ZERO_ROW * max(1.0, abs(d)):
        # Unit is constant on the whole input space of this cell; the sign
        # of the bias decides, exact zero counting as inactive.
        yield 1 if d > 0 else 0, []
        return
    # active: g.x + d > 0  <=>  (-g).x < d; inactive: the negated row
    row, off = -g / norm, d / norm
    yield 1, [(row, off)]
    yield 0, [(-row, -off)]


def _maxout_children(G, D):
    """(state, new rows) of the children of one maxout unit on one cell."""
    k = G.shape[0]
    for t in range(k):
        rows = []
        for s in range(k):
            if s == t:
                continue
            row = G[s] - G[t]
            off = D[t] - D[s]
            norm = _norm(row)
            if norm >= _ZERO_ROW * max(1.0, abs(off)):
                rows.append((row / norm, off / norm))
            elif off < 0 or (off == 0 and s < t):
                # s beats branch t everywhere; identical branches: the lower index wins
                break
        else:
            yield t, rows


def _subdivide_cell(cell: _Cell, layer, index: int, cfg, held: int) -> list[_Cell]:
    """Push one cell through every unit of layer ``index``.  ``held`` live
    cells lie outside this one; with them, every child created counts
    against ``cfg.region_cap``."""
    cells = [cell]
    k = layer.activation.rank
    W, b = layer.weights, layer.bias
    fixed = len(cell.pattern)  # layers whose states are tuples already
    for j in range(layer.width):
        nxt = []
        for i, c in enumerate(cells):
            if k == 1:
                children = _rectifier_children(W[j] @ c.A, float(W[j] @ c.c + b[j]))
            else:
                rows = slice(j * k, (j + 1) * k)
                children = _maxout_children(W[rows] @ c.A, W[rows] @ c.c + b[rows])
            for state, new_rows in children:
                got = _try_extend(c, new_rows, cfg)
                if got is None:
                    continue
                nxt.append(_Cell(c.normals + [r for r, _ in new_rows],
                                 c.offsets + [o for _, o in new_rows],
                                 c.pattern + [state], c.A, c.c, *got))
                live = held + len(nxt) + len(cells) - i - 1
                if live > cfg.region_cap:
                    code = pattern_code(c.pattern[:fixed] + [c.pattern[fixed:]])
                    raise RegionBudgetError(live, cfg.region_cap,
                                            f"layer {index}, unit {j}, cell '{code}'")
                # rank 1 or 2: once one child keeps the whole cell, the other is
                # empty; a higher-rank sibling may be clipped by another row first
                # and, in a box as wide as 1e12, still be found by the exact clip
                if k <= 2 and got[0] is c.witness:
                    break
        cells = nxt
        if not cells:
            raise EnumerationError(
                f"no feasible child at layer {index}, unit {j}, cell "
                f"'{pattern_code(cell.pattern)}'; numerical collapse"
            )
    # fix the layer's pattern and update the affine map; every cell here is new
    for c in cells:
        states = tuple(c.pattern[fixed:])
        Weff, beff = layer_selection(layer, states)
        c.pattern, c.A, c.c = c.pattern[:fixed] + [states], Weff @ c.A, Weff @ c.c + beff
    return cells


def enumerate_regions(net: Network, cfg: FeasibilityConfig | None = None) -> RegionSet:
    """All full-dimensional activation cells of ``net`` inside the box,
    sorted by pattern.  See the module docstring for the algorithm."""
    cfg = cfg or FeasibilityConfig()
    n0 = net.input_dim
    if n0 > 4:
        raise ValueError("enumeration supports input dimension <= 4")
    box = cfg.resolved_box(n0)

    cells = [_root_cell(box)]
    with np.errstate(over="raise"):  # an overflowing map is an error, not an inf
        for index, layer in enumerate(net.layers):
            done: list[_Cell] = []
            for i, c in enumerate(cells):
                try:
                    done += _subdivide_cell(c, layer, index, cfg, len(done) + len(cells) - i - 1)
                except FloatingPointError:
                    raise EnumerationError(f"float overflow at layer {index}, "
                                           f"cell '{pattern_code(c.pattern)}'") from None
            cells = done

    regions = []
    for c in cells:
        pattern = tuple(c.pattern)
        aff = AffineMap(c.A, c.c)
        # rounding in the composed map and in the forward pass both grow
        # with the magnitude of the terms summed, so the bound scales with it
        scale = (np.max(np.abs(c.c))
                 + np.max(np.abs(c.A).sum(axis=1)) * np.max(np.abs(c.witness)))
        drift = float(np.max(np.abs(aff(c.witness) - forward(net, c.witness)[-1])))
        if not drift <= 1e-9 * max(1.0, scale):     # a NaN drift fails too
            raise EnumerationError(
                f"affine map drifted ({drift:.2e}) on region {pattern_code(pattern)}"
            )
        regions.append(
            Region(
                normals=np.array(c.normals),
                offsets=np.array(c.offsets),
                pattern=pattern,
                affine=aff,
                witness=np.asarray(c.witness, float),
                clearance=float(c.clearance),
                vertices=c.vertices,
                tight=c.tight,
            )
        )
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

# Grid points walked per batch: the oracle on a 2-d net of two 8-wide
# rectifier layers peaks near 20 MB at any resolution.
_GRID_BLOCK = 1 << 16

# Most grid points the oracle walks: on one core of a 2-core Xeon host, a
# 2-d net of two 4-wide rectifier layers takes about 6 s for 2.5 * 10**7.
_GRID_LIMIT = 10**8


def oracle_count_by_grid(net: Network, box: Box, resolution: int) -> int:
    """Distinct activation patterns on a regular grid over ``box``.

    One sample per grid cell, placed at a fixed generic offset inside the
    cell (see ``_GRID_OFFSET``) so the probe stays off region boundaries,
    where tie-breaking would manufacture measure-zero patterns.  The value
    is a lower bound on the cell count over the same box, with equality
    once the grid is fine enough that every cell catches a point.  Only
    implemented for 1 or 2 input dimensions.

    The grid is walked ``_GRID_BLOCK`` points at a time, each point's
    coordinates computed from its indices, so memory does not grow with
    the resolution.  Time does, so grids of more than ``_GRID_LIMIT``
    points are refused.  A pattern row is one int8 per unit, so
    two rows are the same pattern exactly when their bytes are equal:
    each block's rows are counted as opaque byte strings, and so are the
    distinct rows of all blocks together.
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
    seen = []
    for start in range(0, total, _GRID_BLOCK):
        # point i has indices (i // resolution, i % resolution)
        index = np.unravel_index(np.arange(start, min(start + _GRID_BLOCK, total)), shape)
        X = np.column_stack([lo + (hi - lo) / resolution * (i + _GRID_OFFSET)
                             for (lo, hi), i in zip(box, index)])
        # rows of bytes: the hstack of transposed states comes F-ordered
        pats = np.ascontiguousarray(pattern_matrix(net, X))
        row = np.dtype((np.void, pats.shape[1] * pats.itemsize))
        seen.append(np.unique(pats.view(row).ravel()))
    return int(np.unique(np.concatenate(seen)).shape[0])


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
