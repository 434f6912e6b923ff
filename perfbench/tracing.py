"""Per-layer tracing from outside the program.

The tracer replaces public functions of ``pwlregions`` with timing
wrappers for the duration of a traced pass.  Each target is wrapped in
every ``pwlregions`` module namespace that binds it, which is where the
calling module looks the name up at call time, so calls from one module
into another (``regions`` calling ``linprog``, ``linmap`` calling
``pattern_at``) are seen as well as calls made by the benchmark.

Targets are looked up by attribute.  A target that a later version of
the program no longer has is recorded as absent and its counters stay at
zero; the tracer never fails because a name moved.

Spans nest.  A layer's ``s`` is the wall time of its outermost spans (a
builder that calls another builder is not counted twice) and its
``self_s`` is each span's duration minus the part covered by child spans.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# Default feas_tol of FeasibilityConfig; every enumeration the benchmark
# runs uses it, so an LP counts as feasible when its max slack exceeds it.
LP_FEASIBLE_SLACK = 1e-7

BUILDERS = (
    "build_abs_net",
    "build_catalan_layer",
    "build_folding_rectifier_net",
    "build_maxout_cones",
    "build_maxout_parallel",
    "build_rank2_folding_maxout",
    "build_rank2_maxout_as_rectifier",
    "build_shi_layer",
    "sawtooth_network",
    "sawtooth_with_threshold",
)

# (layer, defining module, attribute name)
TARGETS = (
    [
        ("regions.lp", "pwlregions.regions", "linprog"),
        ("regions.enumerate", "pwlregions.regions", "enumerate_regions"),
        ("regions.exact", "pwlregions.regions", "exact_strictly_feasible"),
        ("regions.oracle", "pwlregions.regions", "oracle_count_by_grid"),
        ("regions.polygons", "pwlregions.regions", "region_polygons_2d"),
        ("network.forward", "pwlregions.network", "forward"),
        ("network.pattern_at", "pwlregions.network", "pattern_at"),
        ("network.pattern_affine", "pwlregions.network", "pattern_affine"),
        ("network.pattern_matrix", "pwlregions.network", "pattern_matrix"),
        ("linmap.unit_linear_map", "pwlregions.linmap", "unit_linear_map"),
        ("linmap.boundary_clearance", "pwlregions.linmap", "boundary_clearance"),
        ("linmap.finite_difference_gradient", "pwlregions.linmap",
         "finite_difference_gradient"),
        ("linmap.find_identified_pair", "pwlregions.linmap", "find_identified_pair"),
        ("linmap.enumerate_unit_pieces", "pwlregions.linmap", "enumerate_unit_pieces"),
        ("constructions.identification_check", "pwlregions.constructions",
         "identification_check"),
        ("bounds.bound_report", "pwlregions.bounds", "bound_report"),
        ("reports.render", "pwlregions.reports", "render_region_report"),
        ("reports.svg", "pwlregions.reports", "region_svg"),
        ("reports.csv", "pwlregions.reports", "write_polygon_csv"),
        ("cli.main", "pwlregions.cli", "main"),
    ]
    + [("constructions.build", "pwlregions.constructions", name) for name in BUILDERS]
)

CRITERIA = tuple(f"c{i:02d}" for i in range(1, 13))

# Every per-layer metric the traced run prints: (name, unit).
PER_LAYER = (
    [
        ("regions.lp.calls", "count"),
        ("regions.lp.s", "s"),
        ("regions.lp.feasible", "count"),
        ("regions.lp.useful_ratio", "ratio"),
        ("regions.lp.rows_mean", "rows"),
        ("regions.lp.rows_max", "rows"),
        ("regions.enumerate.calls", "count"),
        ("regions.enumerate.s", "s"),
        ("regions.enumerate.self_s", "s"),
        ("regions.enumerate.regions_out", "count"),
        ("regions.exact.calls", "count"),
        ("regions.exact.s", "s"),
        ("regions.exact.rows_max", "rows"),
        ("regions.oracle.calls", "count"),
        ("regions.oracle.s", "s"),
        ("regions.oracle.points", "count"),
        ("regions.polygons.s", "s"),
    ]
    + [(f"network.{f}.{m}", u)
       for f in ("forward", "pattern_at", "pattern_affine")
       for m, u in (("calls", "count"), ("s", "s"))]
    + [("network.pattern_matrix.points", "count"), ("network.pattern_matrix.s", "s")]
    + [(f"linmap.{f}.{m}", u)
       for f in ("unit_linear_map", "boundary_clearance",
                 "finite_difference_gradient", "find_identified_pair")
       for m, u in (("calls", "count"), ("s", "s"))]
    + [
        ("linmap.enumerate_unit_pieces.s", "s"),
        ("constructions.build.calls", "count"),
        ("constructions.build.s", "s"),
        ("constructions.identification_check.calls", "count"),
        ("constructions.identification_check.s", "s"),
        ("bounds.bound_report.calls", "count"),
        ("bounds.bound_report.s", "s"),
        ("reports.render.s", "s"),
        ("reports.bytes", "bytes"),
        ("reports.svg.s", "s"),
        ("cli.main.calls", "count"),
        ("cli.main.s", "s"),
    ]
    + [(f"acceptance.{c}.s", "s") for c in CRITERIA]
    + [("trace.overhead_s", "s"), ("trace.absent_targets", "count")]
)


def _lp_rows(args, kwargs):
    a_ub = kwargs.get("A_ub", args[1] if len(args) > 1 else None)
    return 0 if a_ub is None else int(a_ub.shape[0])


def _lp_feasible(result) -> bool:
    return result.status == 0 and float(result.x[-1]) > LP_FEASIBLE_SLACK


class Tracer:
    """Counters and span times, filled while installed."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.extra = defaultdict(float)
        self.lp_rows_max = 0
        self.exact_rows_max = 0
        self.absent: list[str] = []
        self._stack: list[list] = []   # [child seconds] per open span
        self._open = defaultdict(int)  # open spans per layer
        self._patches: list[tuple] = []

    # -- spans ---------------------------------------------------------------

    def _span(self, layer, fn, observe=None):
        stack, open_spans = self._stack, self._open
        calls, total, self_time = self.calls, self.total, self.self_time
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            depth = open_spans[layer]
            open_spans[layer] = depth + 1
            frame = [0.0]          # seconds covered by child spans
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                open_spans[layer] = depth
                if stack:
                    stack[-1][0] += dur
                calls[layer] += 1
                self_time[layer] += dur - frame[0]
                if not depth:
                    total[layer] += dur
            if observe is not None:
                try:
                    observe(args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError, ValueError):
                    pass   # the call's shape changed; its extra counter stays put
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", layer)
        return wrapper

    def _observe_lp(self, args, kwargs, result):
        rows = _lp_rows(args, kwargs)
        self.extra["lp.rows_sum"] += rows
        self.lp_rows_max = max(self.lp_rows_max, rows)
        if _lp_feasible(result):
            self.extra["lp.feasible"] += 1

    def _observe_enumerate(self, args, kwargs, result):
        self.extra["enumerate.regions_out"] += result.count

    def _observe_exact(self, args, kwargs, result):
        normals = kwargs.get("normals", args[0] if args else None)
        self.exact_rows_max = max(self.exact_rows_max, len(normals))

    def _observe_oracle(self, args, kwargs, result):
        net = args[0]
        resolution = kwargs.get("resolution", args[2] if len(args) > 2 else None)
        self.extra["oracle.points"] += int(resolution) ** net.input_dim

    def _observe_points(self, args, kwargs, result):
        X = kwargs.get("X", args[1] if len(args) > 1 else None)
        self.extra["pattern_matrix.points"] += len(X)

    def _observe_bytes(self, args, kwargs, result):
        self.extra["reports.bytes"] += len(result)

    def _observe_csv(self, args, kwargs, result):
        # the benchmark passes a fresh StringIO per call
        out = kwargs.get("out", args[1] if len(args) > 1 else None)
        self.extra["reports.bytes"] += len(out.getvalue())

    # -- installation --------------------------------------------------------

    def _observers(self):
        return {
            "regions.lp": self._observe_lp,
            "regions.enumerate": self._observe_enumerate,
            "regions.exact": self._observe_exact,
            "regions.oracle": self._observe_oracle,
            "network.pattern_matrix": self._observe_points,
            "reports.render": self._observe_bytes,
            "reports.svg": self._observe_bytes,
            "reports.csv": self._observe_csv,
        }

    def _patch(self, module, name, value):
        self._patches.append((module, name, getattr(module, name)))
        setattr(module, name, value)

    def install(self):
        """Wrap every target in every loaded ``pwlregions`` module."""
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == "pwlregions" or key.startswith("pwlregions."))]
        observers = self._observers()
        for layer, home, name in TARGETS:
            target = getattr(sys.modules.get(home), name, None)
            if target is None:
                self.absent.append(f"{home}.{name}")
                continue
            wrapped = self._span(layer, target, observers.get(layer))
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is target:
                        self._patch(module, attr, wrapped)
        self._wrap_criteria(sys.modules.get("pwlregions.acceptance"))

    def _wrap_criteria(self, acceptance):
        """``run_all`` iterates the module's ALL_CRITERIA list, so the
        criteria are wrapped by swapping in a list of wrapped functions."""
        criteria = getattr(acceptance, "ALL_CRITERIA", None)
        if not isinstance(criteria, list):
            self.absent.append("pwlregions.acceptance.ALL_CRITERIA")
            return
        wrapped = []
        for fn in criteria:
            cid = getattr(fn, "__name__", "")[:3]
            wrapped.append(self._span(f"acceptance.{cid}", fn) if cid in CRITERIA else fn)
        self._patch(acceptance, "ALL_CRITERIA", wrapped)

    def uninstall(self):
        while self._patches:
            module, name, value = self._patches.pop()
            setattr(module, name, value)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- results -------------------------------------------------------------

    def metrics(self, overhead_s: float) -> dict[str, float]:
        """Values of every PER_LAYER metric."""
        lp_calls = self.calls["regions.lp"]
        values = {
            "regions.lp.calls": lp_calls,
            "regions.lp.s": self.total["regions.lp"],
            "regions.lp.feasible": int(self.extra["lp.feasible"]),
            "regions.lp.useful_ratio": self.extra["lp.feasible"] / lp_calls if lp_calls else 0.0,
            "regions.lp.rows_mean": self.extra["lp.rows_sum"] / lp_calls if lp_calls else 0.0,
            "regions.lp.rows_max": self.lp_rows_max,
            "regions.enumerate.calls": self.calls["regions.enumerate"],
            "regions.enumerate.s": self.total["regions.enumerate"],
            "regions.enumerate.self_s": self.self_time["regions.enumerate"],
            "regions.enumerate.regions_out": int(self.extra["enumerate.regions_out"]),
            "regions.exact.calls": self.calls["regions.exact"],
            "regions.exact.s": self.total["regions.exact"],
            "regions.exact.rows_max": self.exact_rows_max,
            "regions.oracle.calls": self.calls["regions.oracle"],
            "regions.oracle.s": self.total["regions.oracle"],
            "regions.oracle.points": int(self.extra["oracle.points"]),
            "regions.polygons.s": self.total["regions.polygons"],
            "network.pattern_matrix.points": int(self.extra["pattern_matrix.points"]),
            "network.pattern_matrix.s": self.total["network.pattern_matrix"],
            "linmap.enumerate_unit_pieces.s": self.total["linmap.enumerate_unit_pieces"],
            "reports.render.s": self.total["reports.render"],
            "reports.bytes": int(self.extra["reports.bytes"]),
            "reports.svg.s": self.total["reports.svg"],
            "trace.overhead_s": overhead_s,
            "trace.absent_targets": len(self.absent),
        }
        for layer in ("network.forward", "network.pattern_at", "network.pattern_affine",
                      "linmap.unit_linear_map", "linmap.boundary_clearance",
                      "linmap.finite_difference_gradient", "linmap.find_identified_pair",
                      "constructions.build", "constructions.identification_check",
                      "bounds.bound_report", "cli.main"):
            values[f"{layer}.calls"] = self.calls[layer]
            values[f"{layer}.s"] = self.total[layer]
        for cid in CRITERIA:
            values[f"acceptance.{cid}.s"] = self.total[f"acceptance.{cid}"]
        return {name: values[name] for name, _ in PER_LAYER}
