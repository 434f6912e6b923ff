"""Affine maps realized by individual units at given inputs.

On the region containing x, every unit's activation is an affine function
u.x + c; this module extracts that map by composing the pattern-selected
weights below the unit, validates it against finite differences, lists
the distinct maps a unit realizes over a sample set, and adjusts one of
two points until a chosen unit outputs the same value at both — a probe
demonstrating that the two surrounding regions are folded together.

A probe point is walked once, by ``network.pattern_at`` or here, and kept
(``network._point_steps``); its maps are composed onto that walk with
``network._layer_step``, the step of ``pattern_affine``, when first read
(``_layer_maps``).  The step trusts the states the walk made and checks
none; a pattern from outside is checked by ``pattern_affine``.  This is the
one path from a point to its region's map: the unit maps, the clearance,
the pair probe and ``region_map`` all read it.  Entry points take one
finite point (n0,), or finite samples (m, n0), and raise ``ValueError``
otherwise.  A point is checked once, when its maps are first composed, so
a NaN point that ``pattern_at`` walked still raises; a call at the kept
point compares its shape and float64 bytes only.  ``unit_activation``
checks its point on every call and reads the walk alone.  The kept maps are
read-only, and the maps handed out are views of them, not copies.  A
call's many points walk as one stack, whose items round as lone walks.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import network
from .network import (
    AffineMap,
    Network,
    _layer_step,
    _row_bytes,
    _stack_slots,
    _walk,
    forward,
)


class IdentificationError(RuntimeError):
    """No identified pair exists along the adjustment ray."""


def _checked_point(net: Network, x, name: str = "x") -> np.ndarray:
    """``x`` as a float array; it must be one finite point of shape (n0,)."""
    x = np.asarray(x, float)
    if x.shape == (net.input_dim,) and all(map(math.isfinite, x.tolist())):
        return x
    got = f"shape {x.shape}" if x.shape != (net.input_dim,) else x.tolist()
    raise ValueError(f"{name} must be a finite point of shape ({net.input_dim},), got {got}")


def _layer_maps(net: Network, x) -> tuple:
    """Per layer at the point x: pre-activations, states, activations and
    the read-only map (A, c) from the input to those activations, composed
    onto x's kept walk when first read; x is checked only then."""
    x = np.asarray(x, float)
    owner, key, _, layers = network._kept
    if owner is net and layers is not None and x.shape == (net.input_dim,) and key == x.tobytes():
        return layers
    _, key, steps, _ = network._point_steps(net, _checked_point(net, x))
    A, c = network._origin(net.input_dim)
    layers = []
    for layer, (z, s, h) in zip(net.layers, steps):
        A, c = _layer_step(layer, s, A, c)  # read-only
        layers.append((z, s, h, A, c))
    layers = tuple(layers)
    network._kept = (net, key, steps, layers)
    return layers


def unit_activation(net: Network, layer: int, unit: int, x) -> float:
    """Post-nonlinearity output of one unit at x, read from x's kept walk."""
    _check_unit(net, layer, unit)
    return float(network._point_steps(net, _checked_point(net, x))[2][layer][2][unit])


def unit_linear_map(net: Network, layer: int, unit: int, x) -> AffineMap:
    """The affine map the unit's activation follows on x's region.

    Row ``unit`` of the pattern-fixed composition through ``layer``; an
    inactive rectifier therefore yields the zero map, and a maxout unit
    the map of its argmax branch.  x's walk composes with the layer step
    that the enumerator steps Region.affine with, so the row agrees
    exactly with the corresponding row of the map of x's region.  The
    map's arrays are read-only views of that row of x's kept walk; a later
    walk makes new arrays and leaves them as they are.
    """
    _check_unit(net, layer, unit)
    _, _, _, A, c = _layer_maps(net, x)[layer]
    return AffineMap._of(A[unit:unit + 1], c[unit:unit + 1])


def region_map(net: Network, x, readout: AffineMap | None = None) -> tuple[tuple, AffineMap]:
    """x's activation pattern, and the map of x's region from the input to
    the last layer, after ``readout`` if one is given; read from x's walk."""
    layers = _layer_maps(net, x)
    _, _, _, A, c = layers[-1]
    full = AffineMap._of(A[:], c[:])  # views, which cannot be made writeable
    return _pattern(layers), full if readout is None else readout.compose(full)


def _pattern(steps) -> tuple:
    """The activation pattern of a point's walk steps or layer maps."""
    return tuple(tuple(step[1].tolist()) for step in steps)


def _value_map(full: AffineMap, unit: int, readout: AffineMap | None) -> AffineMap:
    """Row ``unit`` of ``full``, after ``readout`` if one is given, as views."""
    if readout is not None:
        full = readout.compose(full)
    return AffineMap._of(full.matrix[unit:unit + 1], full.offset[unit:unit + 1])


def output_values(net: Network, x, readout: AffineMap | None = None) -> np.ndarray:
    """The last layer's activations at x, after ``readout`` if one is given.

    ``x`` is one point (n0,), giving one vector, or a batch (n, n0),
    giving one row per point.  A batch's rows can differ from one-point
    calls in the last bits (see ``network._walk``)."""
    acts = forward(net, np.asarray(x, float))[-1]
    if readout is None:
        return acts.T
    return (readout.matrix @ acts).T + readout.offset


def _check_unit(net: Network, layer: int, unit: int,
                readout: AffineMap | None = None) -> None:
    """``unit`` indexes the units of ``layer``, or the rows of ``readout``."""
    if not 0 <= layer < len(net.layers):
        raise IndexError(f"layer {layer} out of range")
    if readout is None and not 0 <= unit < net.layers[layer].width:
        raise IndexError(f"unit {unit} out of range")
    if readout is not None and not 0 <= unit < readout.matrix.shape[0]:
        raise IndexError(f"readout row {unit} out of range")


@lru_cache(maxsize=8)
def _shifts(n0: int, step: float) -> np.ndarray:
    """A central difference's read-only shifts [step I; -step I], made once per (n0, step)."""
    E = network._origin(n0, step)[0]
    return network._freeze(np.vstack([E, -E]), 2)


def finite_difference_gradient(net: Network, layer: int, unit: int, x) -> np.ndarray:
    """Central-difference gradient of the unit's activation at x.

    The 2*n0 shifted points walk as one stack through ``layer`` only and
    do not evict x's kept layer maps."""
    _check_unit(net, layer, unit)
    x = _checked_point(net, x)
    n, step = len(x), 1e-6
    Y = _stack_slots((2 * n,), n)
    np.add(x, _shifts(n, step), out=Y[..., 0])  # x + (-e) is x - e, bit for bit
    H = next(itertools.islice(_walk(net, Y, states=False), layer, None))[2]
    return (H[:n, unit, 0] - H[n:, unit, 0]) / (2.0 * step)


def boundary_clearance(net: Network, x) -> float:
    """Distance from x to the nearest activation boundary, measured with
    input-space unit normals.  Infinite when no unit ever switches.

    Reads x's kept layer maps: pre-activations, states, activations (a
    maxout unit's is its branches' maximum, from which its gaps are taken)
    and the linear part below each layer.  First-layer norms are made once
    per layer; rows whose squares overflow are normed scaled (``network._norms``)."""
    zs, rows, norms, A = [], [], [], None  # A: the linear part below the layer
    for layer, (z, s, h, next_A, _) in zip(net.layers, _layer_maps(net, x)):
        k = layer.activation.rank
        if k > 1:
            pick = layer._branch_rows + s  # the selected branch per unit
            z = (h[:, None] - z.reshape(-1, k)).ravel()
        if A is None:
            norms.append(layer._row_norms if k == 1 else layer._pair_norms.take(pick, 0).ravel())
        else:
            G = layer.weights @ A  # input-space rows
            if k > 1:  # each unit's selected row less each of its branch rows
                G = (G.take(pick, 0)[:, None] - G.reshape(len(pick), k, -1)).reshape(len(G), -1)
            rows.append(G)
            norms.append(np.sqrt(np.add.reduce(G * G, axis=1)))
        zs.append(z)
        A = next_A
    z, n = np.abs(np.concatenate(zs)), np.concatenate(norms)
    q = np.empty(len(z))
    q.fill(np.inf)  # a norm <= 1e-12: inf, its quotient not taken
    best = float(np.minimum.reduce(np.divide(z, n, out=q, where=n > 1e-12)))
    if not best > 0.0 and rows:  # 0 or NaN: maybe a deeper row's squares overflowed
        # only an infinite norm changes, so the mask and the untaken quotients stay
        n = np.concatenate(norms[:1] + [network._norms(G) for G in rows])
        best = float(np.minimum.reduce(np.divide(z, n, out=q, where=n > 1e-12)))
    return best


@dataclass(frozen=True)
class UnitPiece:
    map: AffineMap
    representative: np.ndarray
    activation: float


def enumerate_unit_pieces(net: Network, layer: int, unit: int, samples,
                          readout: AffineMap | None = None,
                          tol: float = 1e-8) -> list[UnitPiece]:
    """Distinct affine maps a unit (or readout row) realizes over samples.

    ``samples`` must be finite and of shape (m, n0); an empty sample set
    has no pieces.  Only samples where the tracked value is strictly
    positive are kept.  The samples walk once, as one stack, through the
    layers the tracked value reads.
    Maps are deduplicated within ``tol`` (max coefficient difference,
    finite and >= 0), each retaining its first representative sample,
    then sorted by coefficients so the result is independent of
    traversal order.
    """
    if not 0 <= tol < math.inf:  # a NaN tol would merge every piece
        raise ValueError(f"tol must be finite and >= 0, got {tol!r}")
    X = np.asarray(samples, float)
    want = f"samples must be finite and of shape (m, {net.input_dim})"
    if X.size and (X.ndim != 2 or X.shape[1] != net.input_dim):
        raise ValueError(f"{want}, got shape {X.shape}")
    if not np.isfinite(X).all():
        raise ValueError(f"{want}, got non-finite entries")
    _check_unit(net, layer, unit, readout)
    depth = layer + 1 if readout is None else net.depth  # layers the value reads
    steps = list(itertools.islice(_walk(net, X.reshape(-1, net.input_dim, 1)), depth))
    H = steps[-1][2]  # a readout applies to each item as readout(h) does
    acts = (H if readout is None else readout.matrix @ H + readout.offset[:, None])[:, unit, 0]
    states = [S[..., 0] for _, S, _ in steps]  # (m, width) per layer
    S = np.hstack(states)  # one dtype, so equal bytes: equal prefixes
    rows = _row_bytes(S)
    ends = (np.cumsum([w.shape[1] for w in states]) * S.itemsize).tolist()
    pieces: list[UnitPiece] = []
    keys = np.empty((0, net.input_dim + 1))
    composed: dict[bytes, tuple] = {}  # a prefix's layer step, by its row bytes (length: layer)
    for i in np.flatnonzero(acts > 0.0).tolist():
        if rows[i] in composed:  # a whole row seen before fixed a map matched then
            continue
        A, c = network._origin(net.input_dim)
        for at, end in enumerate(ends):
            if (prefix := rows[i][:end]) not in composed:
                composed[prefix] = _layer_step(net.layers[at], states[at][i], A, c)
            A, c = composed[prefix]
        m = _value_map(AffineMap._of(A, c), unit, readout)
        key = np.concatenate([m.matrix.ravel(), m.offset])
        if (np.abs(keys - key).max(axis=1) > tol).all():
            pieces.append(UnitPiece(m, X[i], float(acts[i])))
            keys = np.vstack([keys, key])
    pieces.sort(key=lambda p: tuple(np.concatenate([p.map.matrix.ravel(), p.map.offset])))
    return pieces


@dataclass(frozen=True)
class IdentifiedPair:
    """Result of the equal-activation probe: the adjusted second point,
    the value maps at both points, and whether the points already shared
    one region (in which case no adjustment is performed)."""

    point: np.ndarray
    map1: AffineMap
    map2: AffineMap
    same_region: bool


def find_identified_pair(net: Network, layer: int, unit: int, x1, x2,
                         target_tol: float = 1e-10,
                         readout: AffineMap | None = None) -> IdentifiedPair:
    """Move x2 along its local value gradient until the tracked unit
    outputs the same value as at x1, without leaving x2's region.

    The value map is affine on the region, so a single exact step lands on
    the target; the result is rejected if that step crosses a region
    boundary or fails to reach ``target_tol``, which must be finite and
    >= 0.
    """
    x1 = _checked_point(net, x1, "x1")
    x2 = _checked_point(net, x2, "x2")
    if not 0 <= target_tol < math.inf:
        raise ValueError(f"target_tol must be finite and >= 0, got {target_tol!r}")

    _check_unit(net, layer, unit, readout)

    at = layer if readout is None else -1  # the layer the tracked value reads

    def tracked(steps):
        """The tracked value and the pattern of a point's walk steps."""
        h = steps[at][2]
        return float(h[unit] if readout is None else readout(h)[unit]), _pattern(steps)

    l1, l2 = _layer_maps(net, x1), _layer_maps(net, x2)
    (a1, p1), (a2, p2) = tracked(l1), tracked(l2)
    if not (a1 > 0.0 and a2 > 0.0):  # a NaN value is not positive either
        raise ValueError("unit must be active (positive value) at both points")
    m1, m2 = (_value_map(AffineMap._of(*layers[at][3:]), unit, readout) for layers in (l1, l2))
    if p1 == p2:
        return IdentifiedPair(x2.copy(), m1, m2, True)

    g = m2.matrix[0]
    gnorm2 = float(g @ g)
    if gnorm2 < 1e-24:
        raise IdentificationError("value gradient vanishes at the second point")
    adjusted = x2 + ((a1 - a2) / gnorm2) * g
    # only its value and pattern are read: a plain walk, no map composed
    a3, p3 = tracked(list(_walk(net, adjusted)))
    if p3 != p2:
        raise IdentificationError(
            "no identified pair along this ray: the region boundary is crossed first"
        )
    miss = abs(a3 - a1)
    if miss > target_tol:
        raise IdentificationError(f"adjustment landed {miss:.3e} from the target value")
    # adjusted keeps x2's pattern, hence x2's map
    return IdentifiedPair(adjusted, m1, m2, False)
