"""Data model for feedforward networks built from rectifier and maxout units.

A network here is the hidden stack only: an input dimension plus a sequence
of layers, each layer a weight matrix, bias vector and an activation.  Any
affine readout applied after the last hidden layer never changes where the
computed function switches affine pieces, so it is kept out of the model;
constructions that need one carry it separately.

An activation is its rank.  Rank 1 is a rectifier unit, computing
``max(0, w.x + b)``.  A maxout unit of rank k >= 2 keeps k rows of
weights/biases (stored consecutively: unit j of a rank-k layer owns rows
``j*k .. j*k+k-1``) and outputs the largest of its k branch
pre-activations.

Activation-pattern conventions, used consistently everywhere:

* rectifier: a unit is *active* iff its pre-activation is strictly
  positive; an exact zero counts as inactive.
* maxout: the selected branch is the argmax, ties resolved to the lowest
  branch index.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from typing import IO, Sequence

import numpy as np

from .serialize import render_json

RECTIFIER = "rectifier"
MAXOUT = "maxout"


class NetworkFormatError(ValueError):
    """Raised when a network file does not follow the on-disk schema."""


@dataclass(frozen=True)
class Activation:
    rank: int = 1  # 1: rectifier; k >= 2: rank-k maxout

    def __post_init__(self):
        if self.rank < 1:
            raise ValueError("activation rank must be >= 1")

    @property
    def kind(self) -> str:
        return RECTIFIER if self.rank == 1 else MAXOUT


ACT_RECTIFIER = Activation()


def maxout(rank: int) -> Activation:
    if rank < 2:
        raise ValueError("maxout rank must be >= 2")
    return Activation(rank)


def _freeze(a, ndim: int) -> np.ndarray:
    """``a`` as a read-only C-contiguous float64 array of at least ``ndim``
    (1 or 2) dimensions, leading ones added as ``np.atleast_2d`` adds them.
    A read-only one is used as it is; the caller's writeable one is copied."""
    f = np.asarray(a, float, order="C")
    if f.flags.writeable:  # only then: setting the flag costs more than the test
        f = f.copy() if f is a or not f.flags.owndata else f
        f.flags.writeable = False
    if f.ndim < ndim:  # a view of a read-only array is read-only
        f = f.reshape((1,) * (ndim - f.ndim) + f.shape)
    return f


@dataclass(frozen=True, eq=False)
class Layer:
    """One hidden layer: ``rank*width`` weight rows over the previous width."""

    weights: np.ndarray  # (rank*width, fan_in)
    bias: np.ndarray     # (rank*width,)
    activation: Activation = ACT_RECTIFIER

    def __post_init__(self):
        object.__setattr__(self, "weights", _freeze(self.weights, 2))
        object.__setattr__(self, "bias", _freeze(self.bias, 1))
        rows = self.weights.shape[0]
        k = self.activation.rank
        if rows == 0 or rows % k != 0:
            raise ValueError(f"{rows} weight rows not divisible by rank {k}")
        if self.bias.shape != (rows,):
            raise ValueError("bias length does not match weight rows")
        if not np.isfinite(self.weights).all() or not np.isfinite(self.bias).all():
            raise ValueError("non-finite layer parameters")

    @property
    def width(self) -> int:
        return self.weights.shape[0] // self.activation.rank

    @property
    def fan_in(self) -> int:
        return self.weights.shape[1]


@dataclass(frozen=True, eq=False)
class Network:
    input_dim: int
    layers: tuple[Layer, ...]

    def __post_init__(self):
        object.__setattr__(self, "layers", tuple(self.layers))
        if self.input_dim < 1:
            raise ValueError("input_dim must be >= 1")
        if not self.layers:
            raise ValueError("network needs at least one layer")
        fan = self.input_dim
        for i, layer in enumerate(self.layers):
            if layer.fan_in != fan:
                raise ValueError(
                    f"layer {i}: fan-in {layer.fan_in} does not match previous width {fan}"
                )
            fan = layer.width

    @property
    def depth(self) -> int:
        return len(self.layers)

    @property
    def widths(self) -> tuple[int, ...]:
        return tuple(layer.width for layer in self.layers)


# ---------------------------------------------------------------------------
# structure (shape-only view) and parameter counting

@dataclass(frozen=True)
class NetworkStructure:
    input_dim: int
    layers: tuple[tuple[int, Activation], ...]  # (width, activation) per layer

    def __post_init__(self):
        if self.input_dim < 1:
            raise ValueError("input_dim must be >= 1")
        for width, _ in self.layers:
            if width < 1:
                raise ValueError("layer width must be >= 1")

    @property
    def widths(self) -> tuple[int, ...]:
        return tuple(w for w, _ in self.layers)


def rectifier_structure(input_dim: int, widths: Sequence[int]) -> NetworkStructure:
    return NetworkStructure(input_dim, tuple((w, ACT_RECTIFIER) for w in widths))


def maxout_structure(input_dim: int, widths: Sequence[int], rank: int) -> NetworkStructure:
    act = maxout(rank)
    return NetworkStructure(input_dim, tuple((w, act) for w in widths))


def structure_of(net: Network | NetworkStructure) -> NetworkStructure:
    """The shape of ``net``; a structure is returned unchanged."""
    if isinstance(net, NetworkStructure):
        return net
    return NetworkStructure(
        net.input_dim, tuple((l.width, l.activation) for l in net.layers)
    )


def parameter_count(structure: NetworkStructure | Network) -> int:
    """Total number of weights and biases: sum of rank*width*(fan_in+1)."""
    structure = structure_of(structure)
    total = 0
    fan = structure.input_dim
    for width, act in structure.layers:
        total += act.rank * width * (fan + 1)
        fan = width
    return total


# ---------------------------------------------------------------------------
# evaluation

ActivationPattern = tuple  # tuple of per-layer tuples of ints


def _walk(net: Network, X: np.ndarray, states: bool = True):
    """Walk one point (n0,), the rows of a batch (n, n0) or a stack
    (m, n0, 1) of points through the layers.

    Yields, per layer, the pre-activations (rank*width values), the states
    (width ints, int8 unless a maxout rank above 128 needs intp; None
    unless ``states``) and the activations (width values), each of shape
    (values,) for one point, (values, n) for a batch, one column per
    point, and (m, values, 1) for a stack.  This is the one place that
    turns pre-activations into states, by the tie rules in the module
    docstring.  numpy's matmul runs a stack as one matrix-vector product
    per item, the product one point walks with, so each item equals its
    lone walk bit for bit: ``linmap`` walks a gradient's shifted points
    and the unit pieces' samples as stacks.  A batch's matrix-matrix
    products walk a large block faster, but their rounding can differ
    from one point's in the last bits.  Four callers walk batches:

    - ``pattern_matrix``, for the grid oracle, which prints only a count of
      distinct patterns.  The tests check its rows against ``pattern_at``,
      tie cases included, and its counts against the enumerator's.
    - ``linmap.output_values`` on a batch, for the certificate of
      ``build_rank2_maxout_as_rectifier``, whose weights are chosen so
      that batch and point walks round alike (see the comment there);
      the tests check that the certificate has the ``repr`` of a point
      loop.
    - ``constructions.identification_check``, which walks its probes and
      each box's counterparts as batches and prints only a bool (its box
      centres are points, walked by ``linmap.region_map``).  Last-bit
      differences could flip it only for a counterpart within rounding of
      a region boundary, or an output within rounding of the 1e-8
      tolerance; the tests check it against a point loop.
    - the drift check of ``regions.enumerate_regions``, bound
      ``1e-9*max(1, scale)``.  Its verdict can depend on the walk's
      rounding, since ``scale`` reads the final map's entries, not the
      terms the walk summed; a stack would move the verdict, not mend it.
    """
    X = np.asarray(X, dtype=float)
    H = X if X.ndim == 3 else X.T
    ax = X.ndim // 3        # the axis of a point's values: 1 in a stack, else 0
    for layer in net.layers:
        # a batch's and a stack's values are columns
        Z = layer.weights @ H + (layer.bias[:, None] if H.ndim > 1 else layer.bias)
        k = layer.activation.rank
        S = None
        out = _stack_slots((len(H),), layer.width) if ax else None
        if k == 1:
            if states:
                S = (Z > 0.0).view(np.int8)
            H = np.maximum(Z, 0.0, out=out)
        else:
            ZZ = Z.reshape(Z.shape[:ax] + (layer.width, k) + Z.shape[ax + 1:])
            if states:
                # one byte per unit while a branch index fits in it
                S = ZZ.argmax(axis=ax + 1).astype(np.int8 if k <= 128 else np.intp, copy=False)
            H = ZZ.max(axis=ax + 1, out=out)
        yield Z, S, H


def _stack_slots(lead: tuple, n: int) -> np.ndarray:
    """An empty ``lead + (n, 1)`` stack of 16-byte aligned items, as fresh
    lone vectors are (OpenBLAS's generic dot rounds by alignment): for the
    walk's stacks of points and ``regions._unit_children``'s rows."""
    return np.empty((*lead, n + n % 2, 1))[..., :n, :]


def forward(net: Network, x: np.ndarray) -> list[np.ndarray]:
    """Per-layer activation vectors for input ``x``."""
    return [H for _, _, H in _walk(net, x, states=False)]


def pattern_at(net: Network, x: np.ndarray) -> ActivationPattern:
    """Activation pattern at ``x`` (rectifier bits / maxout branch indices)."""
    return tuple(tuple(S.tolist()) for _, S, _ in _walk(net, x))


def pattern_matrix(net: Network, X: np.ndarray) -> np.ndarray:
    """Vectorized ``pattern_at`` over rows of ``X``: one int per unit, in one dtype."""
    return np.hstack([S.T for _, S, _ in _walk(net, X)])


def _row_bytes(S: np.ndarray) -> list[bytes]:
    """One ``bytes`` per row of a state matrix, one integer of one dtype per
    unit as ``pattern_matrix`` gives: two rows are the same pattern exactly
    when their bytes are equal."""
    S = np.ascontiguousarray(S)
    return S.view(np.dtype((np.void, S.shape[1] * S.itemsize))).ravel().tolist()


def pattern_code(pattern: ActivationPattern) -> str:
    """Compact text form of a pattern: units joined by ',', layers by '|'."""
    return "|".join(",".join(str(int(u)) for u in layer) for layer in pattern)


# ---------------------------------------------------------------------------
# pattern-fixed affine maps

@dataclass(frozen=True, eq=False)
class AffineMap:
    """x -> matrix @ x + offset."""

    matrix: np.ndarray
    offset: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "matrix", _freeze(self.matrix, 2))
        object.__setattr__(self, "offset", _freeze(self.offset, 1))
        if self.matrix.shape[0] != self.offset.shape[0]:
            raise ValueError("matrix/offset shape mismatch")

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.matrix @ np.asarray(x, dtype=float) + self.offset

    def compose(self, inner: "AffineMap") -> "AffineMap":
        """self after inner: x -> self(inner(x))."""
        A, c = self.matrix @ inner.matrix, self.matrix @ inner.offset + self.offset
        A.flags.writeable = c.flags.writeable = False  # made here: no copy
        return AffineMap(A, c)


def layer_selection(layer: Layer, layer_pattern) -> tuple[np.ndarray, np.ndarray]:
    """Effective (W, b) of one layer once its pattern is fixed.

    Inactive rectifier rows become zero rows; maxout keeps the selected
    branch row per unit.  A stack of patterns, an (m, width) array, gives m
    stacked selections; it raises as its first bad pattern does alone."""
    k = layer.activation.rank
    P = np.asarray(layer_pattern, float if k == 1 else None)
    if P.shape[-1] != layer.width:
        raise ValueError("pattern length does not match layer width")
    if k == 1:
        sel = P[..., None]
        return layer.weights * sel, layer.bias * sel[..., 0]
    if P.size and not (0 <= P.min() and P.max() < k):
        first = tuple(np.argwhere((P < 0) | (P >= k))[0])  # in a stack's first bad pattern
        raise ValueError(f"branch index {P[first]} out of range for unit {first[-1]}")
    rows = np.arange(0, layer.width * k, k) + P
    return layer.weights.take(rows, 0), layer.bias.take(rows)


def _layer_step(layer: Layer, layer_pattern,
                A: np.ndarray, c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The map x -> A x + c carried through one more layer whose pattern
    is fixed: ``(W A, W c + b)``, read-only, with ``(W, b)`` the layer's
    selection.  This is the one composition rule: ``pattern_affine``, the
    probe walk of ``linmap`` and the enumerator, which steps a cell's
    children on the stack of their patterns, compose with it, so their maps
    agree bit for bit: numpy's matmul runs each item of a stack as it runs
    the lone product."""
    W, b = layer_selection(layer, layer_pattern)
    A, c = W @ A, W @ c + b
    A.flags.writeable = c.flags.writeable = False
    return A, c


def pattern_affine(net: Network, pattern: ActivationPattern) -> AffineMap:
    """Affine map input -> activations of the last layer a fixed pattern
    covers; a prefix of a pattern covers the first ``len(prefix)`` layers."""
    A = np.eye(net.input_dim)
    c = np.zeros(net.input_dim)
    for layer, lp in zip(net.layers, pattern):
        A, c = _layer_step(layer, lp, A, c)
    return AffineMap(A, c)


# ---------------------------------------------------------------------------
# file format

def network_to_dict(net: Network) -> dict:
    layers = []
    for layer in net.layers:
        entry: dict = {"activation": layer.activation.kind}
        if layer.activation.kind == MAXOUT:
            entry["rank"] = layer.activation.rank
        entry["width"] = layer.width
        entry["weights"] = [[float(v) for v in row] for row in layer.weights]
        entry["bias"] = [float(v) for v in layer.bias]
        layers.append(entry)
    return {"input_dim": net.input_dim, "layers": layers}


def save_network(net: Network, fp: IO[str] | str) -> None:
    """Write a network as JSON; floats carry 17 significant digits."""
    text = render_json(network_to_dict(net))
    if isinstance(fp, str):
        with open(fp, "w") as f:
            f.write(text)
    else:
        fp.write(text)


def _require(cond: bool, where: str, msg: str):
    if not cond:
        raise NetworkFormatError(f"{where}: {msg}")


def _numbers(values: list, where: str) -> list[float]:
    """``values`` as floats; each must be a number a float holds finitely."""
    for j, v in enumerate(values):
        _require(isinstance(v, (int, float)) and not isinstance(v, bool),
                 where, "entries must be numbers")
        _require(abs(v) <= sys.float_info.max, where, f"entry {j} is not a finite float")
    return [float(v) for v in values]


def network_from_dict(doc) -> Network:
    _require(isinstance(doc, dict), "top level", "expected an object")
    _require("input_dim" in doc, "top level", "missing 'input_dim'")
    _require("layers" in doc, "top level", "missing 'layers'")
    unknown = set(doc) - {"input_dim", "layers"}
    _require(not unknown, "top level", f"unknown fields {sorted(unknown)}")
    n0 = doc["input_dim"]
    _require(isinstance(n0, int) and not isinstance(n0, bool) and n0 >= 1,
             "input_dim", "expected a positive integer")
    _require(isinstance(doc["layers"], list) and doc["layers"],
             "layers", "expected a non-empty array")

    layers = []
    fan = n0
    for i, entry in enumerate(doc["layers"]):
        where = f"layer {i}"
        _require(isinstance(entry, dict), where, "expected an object")
        for fld in ("activation", "width", "weights", "bias"):
            _require(fld in entry, where, f"missing '{fld}'")
        kind = entry["activation"]
        _require(kind in (RECTIFIER, MAXOUT), where, f"unknown activation {kind!r}")
        if kind == RECTIFIER:
            _require("rank" not in entry, where, "rank not allowed for rectifier layers")
            act = ACT_RECTIFIER
        else:
            _require("rank" in entry, where, "maxout layers need a 'rank'")
            rank = entry["rank"]
            _require(isinstance(rank, int) and not isinstance(rank, bool) and rank >= 2,
                     where, "rank must be an integer >= 2")
            act = maxout(rank)
        allowed = {"activation", "rank", "width", "weights", "bias"}
        unknown = set(entry) - allowed
        _require(not unknown, where, f"unknown fields {sorted(unknown)}")
        width = entry["width"]
        _require(isinstance(width, int) and not isinstance(width, bool) and width >= 1,
                 where, "width must be a positive integer")
        rows = entry["weights"]
        _require(isinstance(rows, list), where, "weights must be an array of rows")
        _require(len(rows) == act.rank * width, where,
                 f"expected {act.rank * width} weight rows, found {len(rows)}")
        mat = []
        for r, row in enumerate(rows):
            _require(isinstance(row, list), f"{where}: weights row {r}", "expected an array")
            _require(len(row) == fan, f"{where}: weights row {r}",
                     f"has length {len(row)}, expected {fan}")
            mat.append(_numbers(row, f"{where}: weights row {r}"))
        bias = entry["bias"]
        _require(isinstance(bias, list) and len(bias) == act.rank * width, where,
                 f"bias must be an array of length {act.rank * width}")
        layers.append(Layer(np.array(mat, dtype=float),
                            np.array(_numbers(bias, f"{where}: bias")), act))
        fan = width
    return Network(n0, tuple(layers))


def _json_int(text: str) -> int | float:
    """A JSON integer literal; one with more digits than ``int`` converts
    (``sys.get_int_max_str_digits``) becomes a float, +-inf, so that the
    field it sits in refuses it by name."""
    try:
        return int(text)
    except ValueError:
        return float(text)


def load_network(fp: IO[str] | str) -> Network:
    """Parse a network file, raising NetworkFormatError with field context."""
    if isinstance(fp, str):
        with open(fp) as f:
            text = f.read()
    else:
        text = fp.read()
    try:
        doc = json.loads(text, parse_int=_json_int)
    except json.JSONDecodeError as e:
        raise NetworkFormatError(f"not valid JSON: {e}") from e
    return network_from_dict(doc)

