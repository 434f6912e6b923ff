"""Builders for the witness networks whose region counts attain the bounds.

Every builder returns a :class:`Construction`: the network itself, a
:class:`WitnessSpec` carrying the predicted region count (with the formula
it instantiates and whether the prediction is exact or a lower bound), an
optional linear readout absorbed out of the network, and, for folding
nets, the raw per-layer stages so the absorbed form can be checked against
an explicit reference evaluation.

Counting convention: predictions marked ``exact`` hold over the spec's
``count_box`` (falling back to the default enumeration box when None).
Folding constructions replicate computation only on the folded domain, so
their exactness box is the product of the first layer's fold intervals.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import asdict, dataclass

import numpy as np

from .bounds import (
    deep_maxout_lower,
    deep_rectifier_lower,
    deep_rectifier_lower_refined,
    fold_counts,
    shallow_max_regions,
)
from .network import (
    ACT_RECTIFIER,
    AffineMap,
    Layer,
    Network,
    maxout,
    pattern_matrix,
    rectifier_structure,
)
from .linmap import output_values, region_map
from .regions import Box, FeasibilityConfig, enumerate_regions


class ConstructionError(RuntimeError):
    """A builder could not realize (or verify) its predicted count."""


@dataclass(frozen=True)
class WitnessSpec:
    """What a constructed network is predicted to do, and on which box."""

    kind: str
    params: dict
    predicted_count: int
    provenance: str          # name of the counting formula instantiated
    exact: bool = True       # True: count == predicted on count_box; False: >=
    count_box: Box | None = None  # None: any default-sized box works

    def to_dict(self) -> dict:
        doc = asdict(self)
        if self.count_box is not None:
            doc["count_box"] = [list(b) for b in self.count_box]
        return doc


@dataclass(frozen=True)
class Construction:
    network: Network
    spec: WitnessSpec
    readout: AffineMap | None = None
    # raw (weights, bias, mixing) triples before absorption; None elsewhere
    stages: tuple | None = None

    def value(self, x) -> np.ndarray:
        """The function the construction realizes (readout applied if any),
        at one point (n0,) or, one row per point, at a batch (n, n0)."""
        return output_values(self.network, x, self.readout)


# ---------------------------------------------------------------------------
# sawtooth folding groups

def mixing_coefficients(p: int) -> np.ndarray:
    """Alternating signs (+1, -1, ...) summing a group's activations."""
    return np.array([(-1.0) ** t for t in range(p)])


def sawtooth_rows(p: int, direction: np.ndarray, scale: float = 1.0):
    """Weight rows and biases of a p-piece fold along ``direction``.

    Unit 1 is max{0, s·d.x}; unit t >= 2 is max{0, 2s·d.x - 2(t-1)}, which
    places the fold's breakpoints at d.x = (t-1)/s for t in [p].
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    d = np.asarray(direction, float)
    rows = [scale * d]
    biases = [0.0]
    for t in range(2, p + 1):
        rows.append(2.0 * scale * d)
        biases.append(-2.0 * (t - 1))
    return np.array(rows), np.array(biases)


def build_sawtooth_group(p: int, coordinate: int = 0, n0: int = 1):
    """One fold group as a Layer on coordinate ``coordinate`` of R^n0,
    plus the mixing row that turns its activations into the folded value."""
    if not 0 <= coordinate < n0:
        raise ValueError("coordinate out of range")
    e = np.zeros(n0)
    e[coordinate] = 1.0
    rows, biases = sawtooth_rows(p, e)
    return Layer(rows, biases, ACT_RECTIFIER), mixing_coefficients(p)


def sawtooth_network(p: int, n0: int = 1, coordinate: int = 0) -> Construction:
    """Single fold group with its mixing row as the readout.

    The group alone has p + 1 activation cells on any box containing the
    breakpoints 0..p-1: the p fold pieces plus the constant tail x < 0.
    """
    layer, mix = build_sawtooth_group(p, coordinate, n0)
    spec = WitnessSpec(
        kind="SawtoothGroup",
        params={"p": p, "n0": n0, "coordinate": coordinate},
        predicted_count=p + 1,
        provenance="fold pieces p plus the constant tail",
        count_box=tuple(
            (-1.0, float(p) + 1.0) if i == coordinate else (-1.0, 1.0) for i in range(n0)
        ),
    )
    return Construction(Network(n0, (layer,)), spec,
                        readout=AffineMap(mix[None, :], np.zeros(1)))


def sawtooth_with_threshold(p: int, theta: float) -> Construction:
    """Fold group followed by one rectifier unit max{0, folded - theta}.

    For 0 < theta < 1 the threshold crosses once inside every fold piece,
    giving 2p + 1 cells on any box containing the breakpoints."""
    if not 0.0 < theta < 1.0:
        raise ValueError("theta must lie strictly between 0 and 1")
    layer, mix = build_sawtooth_group(p, 0, 1)
    second = Layer(mix[None, :], np.array([-float(theta)]), ACT_RECTIFIER)
    # one new breakpoint per fold piece, plus the group's own p breaks
    spec = WitnessSpec(
        kind="SawtoothGroup",
        params={"p": p, "theta": float(theta)},
        predicted_count=2 * p + 1,
        provenance="p fold breaks + p threshold crossings + 1",
    )
    return Construction(Network(1, (layer, second)), spec)


# ---------------------------------------------------------------------------
# deep rectifier folding witness

def _draw_cube_hyperplanes(n0: int, count: int, rng: np.random.Generator):
    """Normals/offsets of ``count`` hyperplanes meant to be in general
    position with every arrangement cell meeting the open unit cube."""
    center = np.full(n0, 0.5)
    if n0 == 1:
        offs = np.array([
            (j + 1.0) / (count + 1.0) + 0.3 * (rng.random() - 0.5) / (count + 1.0)
            for j in range(count)
        ])
        return np.ones((count, 1)), offs
    if n0 == 2:
        normals, offsets = [], []
        for j in range(count):
            theta = math.pi * (j + 0.5 + 0.2 * (rng.random() - 0.5)) / count
            normal = np.array([math.cos(theta), math.sin(theta)])
            phi = 2.0 * math.pi * (j + 0.3 * rng.random()) / count
            through = center + 0.08 * np.array([math.cos(phi), math.sin(phi)])
            normals.append(normal)
            offsets.append(float(normal @ through))
        return np.array(normals), np.array(offsets)
    normals = rng.normal(size=(count, n0))
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    through = center + 0.1 * (rng.random(size=(count, n0)) - 0.5)
    offsets = np.einsum("ij,ij->i", normals, through)
    return normals, offsets


def _verified_cube_arrangement(n0: int, count: int, seed: int, attempts: int = 50):
    """Draw until all of the arrangement's sum-of-binomials cells
    intersect the open unit cube.  That count is reached only in general
    position, so it is the whole test."""
    want = shallow_max_regions(n0, count)
    cube = tuple((0.0, 1.0) for _ in range(n0))
    for attempt in range(attempts):
        rng = np.random.default_rng([seed, attempt, count, n0])
        normals, offsets = _draw_cube_hyperplanes(n0, count, rng)
        probe = Network(n0, (Layer(normals, -offsets, ACT_RECTIFIER),))
        if enumerate_regions(probe, FeasibilityConfig(box=cube)).count == want:
            return normals, offsets
    raise ConstructionError(
        f"could not place {count} hyperplanes with all {want} cells in the cube"
    )


def build_folding_rectifier_net(
    n0: int, widths, seed: int = 0, refined: bool = True
) -> Construction:
    """Deep rectifier witness: layers 1..L-1 fold each input coordinate,
    the last layer cuts the folded cube with a general-position arrangement.

    Every full-dimensional brick of the folded domain replays the last
    layer's arrangement, so the region count over the replication box
    (the product of the first layer's fold intervals) equals the product
    of all fold counts times the arrangement's cell count — exactly the
    closed-form lower bound the construction witnesses.
    """
    widths = tuple(int(w) for w in widths)
    L = len(widths)
    if L < 1 or n0 < 1:
        raise ValueError("need at least one layer and one input dimension")
    for w in widths[:-1]:
        if w < n0:
            raise ConstructionError(
                f"hidden width {w} below input dimension {n0}; folding needs one group per coordinate"
            )

    layers = []
    stages = []
    mixing_prev = np.eye(n0)       # folded coords as a map on previous activations
    all_folds = []
    for li, w in enumerate(widths[:-1]):
        folds = fold_counts(n0, w, refined=refined)
        all_folds.append(list(folds))
        # raw rows live in folded coordinates (R^n0); absorption multiplies
        # in the previous layer's mixing matrix
        raw_rows, raw_bias, mix_rows = [], [], []
        row_at = 0
        for i, p in enumerate(folds):
            e = np.zeros(n0)
            e[i] = 1.0
            scale = 1.0 if li == 0 else float(p)
            rows, biases = sawtooth_rows(p, e, scale)
            raw_rows.extend(rows)
            raw_bias.extend(biases)
            mrow = np.zeros(w)
            mrow[row_at:row_at + p] = mixing_coefficients(p)
            mix_rows.append(mrow)
            row_at += p
        for _ in range(w - row_at):   # unrefined remainder: inert units
            raw_rows.append(np.zeros(n0))
            raw_bias.append(-1.0)
        R = np.array(raw_rows)
        b = np.array(raw_bias)
        M = np.array(mix_rows)
        W = R if li == 0 else R @ mixing_prev
        layers.append(Layer(W, b, ACT_RECTIFIER))
        stages.append((R, b, M))
        mixing_prev = M

    n_last = widths[-1]
    normals, offsets = _verified_cube_arrangement(n0, n_last, seed)
    W_last = normals @ mixing_prev if L > 1 else normals
    layers.append(Layer(W_last, -offsets, ACT_RECTIFIER))
    stages.append((normals, -offsets, None))

    structure = rectifier_structure(n0, widths)
    predicted = (
        deep_rectifier_lower_refined(structure) if refined else deep_rectifier_lower(structure)
    )
    spec = WitnessSpec(
        kind="FoldingRectifierNet",
        params={
            "n0": n0,
            "widths": list(widths),
            "seed": seed,
            "refined": refined,
            "fold_counts": all_folds,
        },
        predicted_count=predicted,
        provenance=(
            "product of fold counts times the last arrangement's cell count"
            + (" (remainder-refined)" if refined else "")
        ),
        # the first layer's fold intervals; with no fold layer, the unit cube
        count_box=tuple((0.0, float(p)) for p in (all_folds or [[1] * n0])[0]),
    )
    net = Network(n0, tuple(layers))
    readout = AffineMap(mixing_prev, np.zeros(n0)) if L > 1 else None
    return Construction(net, spec, readout=readout, stages=tuple(stages))


# ---------------------------------------------------------------------------
# small classic examples

def build_abs_net() -> Construction:
    """Four rectifier units realizing (|x1|, |x2|) through the readout;
    the four open quadrants are identified onto the positive quadrant."""
    W = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    b = np.zeros(4)
    readout = AffineMap(np.array([[1.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 1.0]]), np.zeros(2))
    spec = WitnessSpec(
        kind="AbsNet",
        params={"n0": 2},
        predicted_count=4,
        provenance="coordinate sign quadrants",
    )
    return Construction(Network(2, (Layer(W, b, ACT_RECTIFIER),)), spec, readout=readout)


def _parallel_layer(n: int, coords, biases) -> Layer:
    """Rank-k maxout layer on R^n, k = len(biases): unit u has the branches
    t * x_c + biases[t-1], t = 1..k, on the coordinate c = coords[u]."""
    k = len(biases)
    rows = np.zeros((len(coords), k, n))
    for u, c in enumerate(coords):
        rows[u, :, c] = np.arange(1, k + 1)
    return Layer(rows.reshape(-1, n), np.tile(biases, len(coords)), maxout(k))


def _difference_layer(n: int, slopes, biases) -> Layer:
    """Maxout layer on R^n of rank len(slopes), one unit per pair i < j,
    whose branch t is slopes[t] * (x_i - x_j) + biases[t]."""
    eye = np.eye(n)
    d = np.array([eye[i] - eye[j] for i, j in itertools.combinations(range(n), 2)])
    # + 0.0 turns a zero slope's 0.0 * -1.0 = -0.0 into 0.0, which renders as 0
    rows = np.asarray(slopes, float)[None, :, None] * d[:, None, :] + 0.0
    return Layer(rows.reshape(-1, n), np.tile(biases, len(d)), maxout(len(slopes)))


def build_maxout_parallel(n: int, m: int, k: int) -> Construction:
    """Single maxout layer whose unit j has envelope breakpoints at
    x_{j mod n} = 1, ..., k-1; regions form a k^min(n,m) grid."""
    if n < 1 or m < 1 or k < 2:
        raise ValueError("need n, m >= 1 and k >= 2")
    biases = [-t * (t - 1) / 2.0 for t in range(1, k + 1)]
    spec = WitnessSpec(
        kind="MaxoutParallel",
        params={"n": n, "m": m, "k": k},
        predicted_count=k ** min(n, m),
        provenance="parallel-breakpoint grid k^min(n,m)",
    )
    return Construction(Network(n, (_parallel_layer(n, [j % n for j in range(m)], biases),)),
                        spec)


def build_shi_layer(n: int) -> Construction:
    """Rank-3 maxout layer whose units' envelope breaks lie on
    x_i - x_j in {0, 1} for all i < j: (n+1)^(n-1) regions."""
    if n < 2:
        raise ValueError("need n >= 2")
    spec = WitnessSpec(
        kind="ShiLayer",
        params={"n": n},
        predicted_count=(n + 1) ** (n - 1),
        provenance="difference arrangement with offsets {0,1}: (n+1)^(n-1)",
    )
    layer = _difference_layer(n, [0.0, 1.0, 2.0], [0.0, 0.0, -1.0])
    return Construction(Network(n, (layer,)), spec)


def build_catalan_layer(n: int) -> Construction:
    """Rank-4 maxout layer breaking on x_i - x_j in {-1, 0, 1}:
    n! * Catalan(n) regions."""
    if n < 2:
        raise ValueError("need n >= 2")
    catalan = math.comb(2 * n, n) // (n + 1)
    spec = WitnessSpec(
        kind="CatalanLayer",
        params={"n": n},
        predicted_count=math.factorial(n) * catalan,
        provenance="difference arrangement with offsets {-1,0,1}: n!*C_n",
    )
    layer = _difference_layer(n, [1.0, 2.0, 3.0, 4.0], [0.0, 1.0, 1.0, 0.0])
    return Construction(Network(n, (layer,)), spec)


# ---------------------------------------------------------------------------
# maxout folding witnesses

def build_rank2_folding_maxout(n0: int, L: int) -> Construction:
    """L rank-2 maxout layers, unit j computing 2|u_j| - 1: every layer
    halves each coordinate's operating interval onto (-1, 1), so the net
    has exactly 2^(n0 L) regions on any box containing [-1, 1]^n0."""
    if n0 < 1 or L < 1:
        raise ValueError("need n0, L >= 1")
    layers = []
    for _ in range(L):
        rows, bias = [], []
        for j in range(n0):
            e = np.zeros(n0)
            e[j] = 2.0
            rows.extend([e, -e])
            bias.extend([-1.0, -1.0])
        layers.append(Layer(np.array(rows), np.array(bias), maxout(2)))
    spec = WitnessSpec(
        kind="MaxoutCones",
        params={"n0": n0, "L": L, "k": 2},
        predicted_count=2 ** (n0 * L),
        provenance="dyadic coordinate folding 2^(n0 L)",
    )
    return Construction(Network(n0, tuple(layers)), spec)


@dataclass(frozen=True)
class SimulationPair:
    """A rank-2 maxout net, its rectifier simulation, and the measured
    max pointwise difference between the two."""

    maxout: Construction
    rectifier: Construction
    certificate: float
    sample_count: int


def build_rank2_maxout_as_rectifier(n0: int, L: int, seed: int = 0,
                                    sample_count: int = 1000) -> SimulationPair:
    """Simulate each rank-2 unit max{f1, f2} as f2 + max{0, f1 - f2}.

    Two rectifier units stand in for every maxout unit: one carries the
    envelope break (f1 - f2), the other carries f2 shifted up by a margin
    large enough (interval arithmetic over the default box) that it never
    turns off, so region counts of the two nets agree exactly.
    """
    source = build_rank2_folding_maxout(n0, L)
    B = FeasibilityConfig().box_halfwidth
    lo = np.full(n0, -B)
    hi = np.full(n0, B)

    C = np.eye(n0)               # maxout activations as a map on sim activations
    d = np.zeros(n0)
    sim_layers = []
    margins = []
    for _ in range(L):
        # per coordinate: u in [lo, hi]; f1 = 2u-1, f2 = -2u-1.  The margin
        # must keep f2 + M positive over the whole reachable interval, i.e.
        # clear f2's minimum (attained at u = hi).
        M = float(2.0 * np.max(hi) + 1.0) + 2.0
        margins.append(M)
        rows, bias = [], []
        for j in range(n0):
            rows.append(4.0 * C[j])            # f1 - f2 = 4u_j
            bias.append(4.0 * d[j])
            rows.append(-2.0 * C[j])           # f2 + M
            bias.append(-2.0 * d[j] - 1.0 + M)
        sim_layers.append(Layer(np.array(rows), np.array(bias), ACT_RECTIFIER))
        # value v_j = r_{2j} + r_{2j+1} - M
        C = np.zeros((n0, 2 * n0))
        for j in range(n0):
            C[j, 2 * j] = C[j, 2 * j + 1] = 1.0
        d = np.full(n0, -M)
        # next layer's input interval: v = 2|u|-1 over u in [lo, hi]
        abs_hi = np.maximum(np.abs(lo), np.abs(hi))
        lo, hi = np.full(n0, -1.0), 2.0 * abs_hi - 1.0

    readout = AffineMap(C, d)
    sim_spec = WitnessSpec(
        kind="Rank2MaxoutAsRectifier",
        params={"n0": n0, "L": L, "margins": margins},
        predicted_count=2 ** (n0 * L),
        provenance="dyadic coordinate folding 2^(n0 L); break-carrying unit pairs",
    )
    sim = Construction(Network(n0, tuple(sim_layers)), sim_spec, readout=readout)

    # The certificate walks all samples as one batch (network._walk), which
    # gives the bits of a point-by-point walk only because every weight row
    # of both nets and of the readout holds one nonzero entry or two equal
    # ones, each plus or minus a power of two: each dot product then rounds
    # at most once, in any summation order.  Keep that if the rows change.
    rng = np.random.default_rng(seed)
    X = rng.uniform(-2.0, 2.0, size=(sample_count, n0))
    worst = float(np.abs(source.value(X) - sim.value(X)).max(initial=0.0))
    return SimulationPair(source, sim, worst, sample_count)


_CONE_SHIFT = 200.0       # radius at which every cone's unit value crosses 0
_GRID_SPACING = 0.2       # last-layer breakpoint spacing around the origin


def _grid_layer(n0: int, k: int) -> Layer:
    """Rank-k layer with per-coordinate envelope breaks spread around 0."""
    # the bias steps down by (t - k/2) * spacing from branch t to t+1
    steps = ((t - k / 2.0) * _GRID_SPACING for t in range(1, k))
    biases = list(itertools.accumulate(steps, operator.sub, initial=0.0))
    return _parallel_layer(n0, range(n0), biases)


def build_maxout_cones(n0: int, L: int, k: int, rotation: float = 1e-2) -> Construction:
    """Deep maxout witness: L-1 cone layers identify k sectors apiece,
    then a parallel-breakpoint layer contributes k^n0 grid cells, for at
    least k^(L-1+n0) regions (verified by the enumerator on build).

    k = 2 uses the dyadic coordinate folding net (whose 2^(n0 L) regions
    subsume the bound).  k >= 3 uses per-unit gradient fans +-e1, +-e2, ...
    truncated to k branches and rotated by ``rotation``*(j-1) in the
    (e1, e2) plane, biased by a large shift so each fan's value crosses 0
    far from the origin, where the rotation has opened a full-dimensional
    image; only n0 = 2 is supported for k >= 3.
    """
    if L < 1 or k < 2:
        raise ValueError("need L >= 1 and k >= 2")
    predicted = deep_maxout_lower(n0, L, k)
    if k == 2:
        folding = build_rank2_folding_maxout(n0, L)
        spec = WitnessSpec(
            kind="MaxoutCones",
            params={"n0": n0, "L": L, "k": 2, "true_count": 2 ** (n0 * L)},
            predicted_count=predicted,
            provenance="k^(L-1+n0) via dyadic folding (which attains 2^(n0 L))",
            exact=False,
        )
        return Construction(folding.network, spec)
    if n0 != 2:
        raise ConstructionError("cone fans with planar rotations need n0 = 2 for k >= 3")
    if k > 2 * n0:
        raise ConstructionError(f"rank {k} exceeds the 2*n0 = {2 * n0} fan directions")

    base = []
    for i in range(n0):
        e = np.zeros(n0)
        e[i] = 1.0
        base.extend([e, -e])
    base = np.array(base[:k])

    layers = []
    for _ in range(L - 1):
        rows, bias = [], []
        for j in range(n0):
            ang = rotation * j
            R = np.array([[math.cos(ang), -math.sin(ang)], [math.sin(ang), math.cos(ang)]])
            for g in base:
                rows.append(R @ g)
                bias.append(-_CONE_SHIFT)
        layers.append(Layer(np.array(rows), np.array(bias), maxout(k)))
    layers.append(_grid_layer(n0, k))

    net = Network(n0, tuple(layers))
    spec = WitnessSpec(
        kind="MaxoutCones",
        params={"n0": n0, "L": L, "k": k, "rotation": rotation,
                "shift": _CONE_SHIFT, "grid_spacing": _GRID_SPACING},
        predicted_count=predicted,
        provenance="k identified sectors per hidden layer times a k^n0 grid",
        exact=False,
    )
    got = enumerate_regions(net).count
    if got < predicted:
        raise ConstructionError(
            f"cone witness enumerated {got} < {predicted} regions at rotation {rotation}; "
            "adjust the rotation angle"
        )
    return Construction(net, spec)


# ---------------------------------------------------------------------------
# identification probe

def identification_check(net: Network, boxes, probe_count: int = 20,
                         readout: AffineMap | None = None, seed: int = 0) -> bool:
    """Do the given input boxes all map onto a common output set?

    For ``probe_count`` random points in the first box, a counterpart in
    every other box is computed by inverting that box's affine map (the
    network restricted to the box's region, composed with the readout if
    given).  True iff every counterpart lies in its box, keeps the box's
    activation pattern, and reproduces the probe's output within 1e-8.
    The probes, and each box's counterparts, are walked as one batch.
    """
    tol = 1e-8
    boxes = [tuple((float(lo), float(hi)) for lo, hi in b) for b in boxes]
    if len(boxes) < 2:
        raise ValueError("need at least two boxes")

    centers = [np.array([(lo + hi) / 2 for lo, hi in b]) for b in boxes]
    patterns, maps = zip(*(region_map(net, x, readout) for x in centers))
    if probe_count <= 0:
        return True

    rng = np.random.default_rng(seed)
    lo0, hi0 = np.array(boxes[0]).T
    X = lo0 + (hi0 - lo0) * rng.random((probe_count, len(boxes[0])))
    T = X @ maps[0].matrix.T + maps[0].offset  # one target row per probe
    if np.max(np.abs(output_values(net, X, readout) - T)) > tol:
        return False  # box 0 is not inside one region
    for b, aff, pat in zip(boxes[1:], maps[1:], patterns[1:]):
        A, c = aff.matrix, aff.offset
        if A.shape[0] != A.shape[1]:
            Y, *_ = np.linalg.lstsq(A, (T - c).T, rcond=None)
        else:
            try:
                Y = np.linalg.solve(A, (T - c).T)
            except np.linalg.LinAlgError:
                return False
        Y = Y.T  # one counterpart row per probe
        lo, hi = np.array(b).T
        if not ((lo < Y) & (Y < hi)).all():
            return False
        if not (pattern_matrix(net, Y) == np.concatenate(pat)).all():
            return False
        if np.max(np.abs(output_values(net, Y, readout) - T)) > tol:
            return False
    return True
