"""The package's acceptance suite: one function per criterion.

Each criterion returns a CriterionResult with a deterministic detail
string (no timings, no addresses), so the rendered table is byte-stable
for a fixed seed — which is itself one of the criteria.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .bounds import (
    deep_maxout_lower,
    deep_rectifier_lower,
    deep_rectifier_lower_refined,
    rectifier_upper_bound,
    shallow_max_regions,
)
from .constructions import (
    build_abs_net,
    build_catalan_layer,
    build_folding_rectifier_net,
    build_maxout_cones,
    build_maxout_parallel,
    build_rank2_maxout_as_rectifier,
    build_shi_layer,
    sawtooth_network,
)
from .linmap import (
    boundary_clearance,
    find_identified_pair,
    finite_difference_gradient,
    unit_activation,
    unit_linear_map,
)
from .network import Layer, Network, rectifier_structure
from .regions import (
    FeasibilityConfig,
    count_regions,
    enumerate_regions,
    oracle_count_by_grid,
)
from .reports import render_region_report
from .constructions import identification_check

# Frozen after the first verified enumeration runs; these witnesses are
# rebuilt with arrangement verification, so the exact values are seed-free.
FOLDING_2D_REGRESSION = 44
FOLDING_REFINED_REGRESSION = 42


@dataclass(frozen=True)
class CriterionResult:
    cid: str
    name: str
    passed: bool
    detail: str


def _cfg_for(con) -> FeasibilityConfig:
    return FeasibilityConfig(box=con.spec.count_box)


def _gaussian_net(rng, n0: int, widths) -> Network:
    """A rectifier net of standard normal weights and biases, drawn layer
    by layer, weights first."""
    fans = (n0, *widths)
    return Network(n0, tuple(Layer(rng.normal(size=(w, fan)), rng.normal(size=w))
                             for fan, w in zip(fans, widths)))


def _arrangement_cfg(layer: Layer) -> FeasibilityConfig:
    """The default box, widened to twice the farthest vertex of the line
    arrangement ``W x + b = 0`` of ``layer``: the binomial count needs
    every vertex."""
    W, b = layer.weights, layer.bias
    far = 0.0
    for r, s in itertools.combinations(range(len(b)), 2):
        A = W[[r, s]]
        if abs(np.linalg.det(A)) > 1e-12:
            far = max(far, float(np.max(np.abs(np.linalg.solve(A, -b[[r, s]])))))
    return FeasibilityConfig(box_halfwidth=max(1e3, 1.0 + 2.0 * far))


def c01_shallow_attainment(seed: int) -> CriterionResult:
    hits = 0
    for i in range(20):
        n1 = (i % 8) + 1
        net = _gaussian_net(np.random.default_rng([seed, 1, i]), 2, (n1,))
        # the binomial sum is reached iff the lines are in general position
        count = count_regions(net, _arrangement_cfg(net.layers[0]))
        if count == shallow_max_regions(2, n1):
            hits += 1
    return CriterionResult("c01", "shallow-attainment", hits == 20,
                           f"{hits}/20 nets in general position at the binomial-sum count")


def c02_upper_bound(seed: int) -> CriterionResult:
    violations = 0
    for i in range(50):
        rng = np.random.default_rng([seed, 2, i])
        n0 = 1 + (i % 3)
        depth = int(rng.integers(1, 4))
        widths, total = [], 0
        for _ in range(depth):
            w = int(rng.integers(1, 5))
            if total + w > 10:
                break
            widths.append(w)
            total += w
        if not widths:
            widths = [1]
        count = count_regions(_gaussian_net(rng, n0, widths), FeasibilityConfig())
        if count > rectifier_upper_bound(rectifier_structure(n0, tuple(widths))):
            violations += 1
    return CriterionResult("c02", "upper-bound-2N", violations == 0,
                           f"{violations} violations over 50 random nets")


def c03_folding_1d(seed: int) -> CriterionResult:
    con = build_folding_rectifier_net(1, (2, 2), seed=seed)
    bound = deep_rectifier_lower(rectifier_structure(1, (2, 2)))
    count = count_regions(con.network, _cfg_for(con))
    oracle = oracle_count_by_grid(con.network, con.spec.count_box, 2000)
    ok = count == 6 == bound and oracle == 6
    return CriterionResult("c03", "folding-1d-exact", ok,
                           f"count {count}, bound {bound}, grid oracle {oracle}")


def c04_folding_2d(seed: int) -> CriterionResult:
    con = build_folding_rectifier_net(2, (4, 4), seed=seed)
    bound = deep_rectifier_lower(rectifier_structure(2, (4, 4)))
    count = count_regions(con.network, _cfg_for(con))
    ok = count >= bound and count == FOLDING_2D_REGRESSION
    return CriterionResult("c04", "folding-2d-regression", ok,
                           f"count {count}, bound {bound}, frozen {FOLDING_2D_REGRESSION}")


def c05_folding_refined(seed: int) -> CriterionResult:
    con = build_folding_rectifier_net(2, (5, 3), seed=seed)
    refined = deep_rectifier_lower_refined(rectifier_structure(2, (5, 3)))
    plain = deep_rectifier_lower(rectifier_structure(2, (5, 3)))
    count = count_regions(con.network, _cfg_for(con))
    ok = count >= refined == 42 and count > plain == 28
    return CriterionResult("c05", "folding-remainder-refined", ok,
                           f"count {count} >= refined {refined} > plain {plain}")


def c06_maxout_exact(seed: int) -> CriterionResult:
    checks = [
        (build_maxout_parallel(2, 2, 3), 9),
        (build_shi_layer(3), 16),
        (build_catalan_layer(3), 30),
        (build_shi_layer(2), 3),
    ]
    got = [count_regions(c.network, FeasibilityConfig()) for c, _ in checks]
    want = [w for _, w in checks]
    ok = got == want
    return CriterionResult("c06", "maxout-exact-counts", ok,
                           f"parallel/shi3/catalan3/shi2 = {got}, expected {want}")


def c07_maxout_cones(seed: int) -> CriterionResult:
    cfg = FeasibilityConfig()
    cones2 = build_maxout_cones(2, 2, 2)
    count2 = count_regions(cones2.network, cfg)
    sim = build_rank2_maxout_as_rectifier(2, 2, seed=seed)
    sim_count = count_regions(sim.rectifier.network, cfg)
    cones3 = build_maxout_cones(2, 2, 3)
    count3 = count_regions(cones3.network, cfg)
    ok = (count2 >= deep_maxout_lower(2, 2, 2) == 8
          and count2 == sim_count
          and count3 >= deep_maxout_lower(2, 2, 3) == 27)
    return CriterionResult("c07", "maxout-cones-bound", ok,
                           f"k=2 count {count2} (sim {sim_count}), k=3 count {count3} >= 27")


def c08_rank2_equivalence(seed: int) -> CriterionResult:
    pair = build_rank2_maxout_as_rectifier(2, 2, seed=seed, sample_count=1000)
    ok = pair.certificate <= 1e-9
    return CriterionResult("c08", "rank2-simulation-equivalence", ok,
                           f"max |difference| {pair.certificate:.3e} over 1000 points")


def c09_unit_maps(seed: int) -> CriterionResult:
    rng = np.random.default_rng([seed, 9])
    net = _gaussian_net(rng, 2, (4, 4, 3))
    checked = 0
    worst_grad = 0.0
    worst_val = 0.0
    tries = 0
    while checked < 100 and tries < 2000:
        tries += 1
        x = rng.uniform(-3, 3, size=2)
        if boundary_clearance(net, x) < 1e-5:
            continue
        for li in range(net.depth):
            for j in range(net.layers[li].width):
                m = unit_linear_map(net, li, j, x)
                fd = finite_difference_gradient(net, li, j, x)
                worst_grad = max(worst_grad, float(np.max(np.abs(m.matrix[0] - fd))))
                act = unit_activation(net, li, j, x)
                worst_val = max(worst_val, abs(float(m.matrix[0] @ x + m.offset[0]) - act))
        checked += 1
    ok = checked == 100 and worst_grad <= 1e-6 and worst_val <= 1e-9
    return CriterionResult("c09", "unit-map-extraction", ok,
                           f"100 points, max grad err {worst_grad:.3e}, max value err {worst_val:.3e}")


def c10_identification(seed: int) -> CriterionResult:
    ab = build_abs_net()
    quadrants = [((0.1, 0.9), (0.1, 0.9)), ((-0.9, -0.1), (0.1, 0.9)),
                 ((0.1, 0.9), (-0.9, -0.1)), ((-0.9, -0.1), (-0.9, -0.1))]
    abs_ok = identification_check(ab.network, quadrants, probe_count=20,
                                  readout=ab.readout, seed=seed)
    st = sawtooth_network(3)
    saw_ok = identification_check(
        st.network, [((0.05, 0.95),), ((1.05, 1.95),), ((2.05, 2.95),)],
        probe_count=20, readout=st.readout, seed=seed)
    same_region = identification_check(
        ab.network, [((0.1, 0.2), (0.1, 0.2)), ((0.5, 0.6), (0.5, 0.6))],
        probe_count=5, readout=ab.readout, seed=seed)
    pair = find_identified_pair(ab.network, 0, 0, [0.7, 0.2], [-0.9, 0.2],
                                target_tol=1e-10, readout=ab.readout)
    delta = abs(float(ab.value(pair.point)[0]) - float(ab.value(np.array([0.7, 0.2]))[0]))
    point_ok = float(np.max(np.abs(pair.point - np.array([-0.7, 0.2])))) <= 1e-9
    ok = abs_ok and saw_ok and not same_region and point_ok and delta <= 1e-10
    return CriterionResult("c10", "identification-probe", ok,
                           f"quadrants {abs_ok}, intervals {saw_ok}, "
                           f"one-region rejected {not same_region}, pair delta {delta:.1e}")


def _perturbed(net: Network, rng, eps: float = 1e-6) -> Network:
    layers = []
    for layer in net.layers:
        layers.append(Layer(
            layer.weights + rng.uniform(-eps, eps, size=layer.weights.shape),
            layer.bias + rng.uniform(-eps, eps, size=layer.bias.shape),
            layer.activation,
        ))
    return Network(net.input_dim, tuple(layers))


def c11_perturbation_stability(seed: int) -> CriterionResult:
    witnesses = [
        build_folding_rectifier_net(1, (2, 2), seed=seed),
        build_folding_rectifier_net(2, (4, 4), seed=seed),
        build_folding_rectifier_net(2, (5, 3), seed=seed),
        build_maxout_parallel(2, 2, 3),
        build_shi_layer(3),
        build_shi_layer(2),
        build_catalan_layer(3),
    ]
    decreases = 0
    trials = 0
    for wi, con in enumerate(witnesses):
        cfg = _cfg_for(con)
        base = count_regions(con.network, cfg)
        for t in range(20):
            rng = np.random.default_rng([seed, 11, wi, t])
            trials += 1
            if count_regions(_perturbed(con.network, rng), cfg) < base:
                decreases += 1
    return CriterionResult("c11", "perturbation-stability", decreases == 0,
                           f"{decreases} count decreases over {trials} perturbed trials")


def c12_determinism(seed: int) -> CriterionResult:
    con = build_folding_rectifier_net(2, (4, 4), seed=seed)
    report_a, report_b = (render_region_report(enumerate_regions(con.network, _cfg_for(con)))
                          for _ in range(2))
    bytes_ok = report_a == report_b
    return CriterionResult("c12", "determinism", bytes_ok,
                           f"two enumerations: re-render byte-identical {bytes_ok}")


ALL_CRITERIA = [
    c01_shallow_attainment,
    c02_upper_bound,
    c03_folding_1d,
    c04_folding_2d,
    c05_folding_refined,
    c06_maxout_exact,
    c07_maxout_cones,
    c08_rank2_equivalence,
    c09_unit_maps,
    c10_identification,
    c11_perturbation_stability,
    c12_determinism,
]


def run_all(seed: int = 0) -> list[CriterionResult]:
    return [fn(seed) for fn in ALL_CRITERIA]


def format_table(results) -> str:
    lines = []
    for r in results:
        lines.append(f"{'PASS' if r.passed else 'FAIL'}  {r.cid}  {r.name:<30} {r.detail}")
    passed = sum(r.passed for r in results)
    lines.append(f"{passed}/{len(results)} criteria passed")
    return "\n".join(lines) + "\n"
