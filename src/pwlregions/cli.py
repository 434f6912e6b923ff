"""Command-line interface.

Subcommands
-----------
bounds        closed-form region-count bounds for a layer structure
construct     emit a witness network as JSON (optionally its prediction)
enumerate     exact region enumeration of a network JSON file
oracle        distinct activation patterns on a sampling grid
regions2d     polygon CSV / SVG export for two-input networks
linmap        per-unit affine pieces observed at sample points
identify      equal-output point probe between two regions
verify-all    run the acceptance suite and print its table

Network files use the JSON layout produced by ``construct`` (see
``network.save_network``); pass ``-`` to read from stdin, so commands
pipe:  ``pwlregions construct --kind shi --n 3 | pwlregions enumerate -
--expect 16``.

Exit codes: 0 success, 1 failed expectation or probe, 2 usage or input
error, 3 region cap exceeded.  Layer and unit indices are 0-based.
All randomness derives from ``--seed``; repeated runs with the same
arguments produce byte-identical output.

Values starting with a dash need the ``--flag=value`` spelling
(``--x2=-0.9,0.2``), as usual with getopt-style parsers.
"""

from __future__ import annotations

import argparse
import io
import math
import sys

import numpy as np

from .acceptance import format_table, run_all
from .bounds import bound_report, report_to_dict, report_to_text
from .constructions import (
    ConstructionError,
    SimulationPair,
    build_abs_net,
    build_catalan_layer,
    build_folding_rectifier_net,
    build_maxout_cones,
    build_maxout_parallel,
    build_rank2_maxout_as_rectifier,
    build_shi_layer,
    sawtooth_network,
    sawtooth_with_threshold,
)
from .linmap import IdentificationError, enumerate_unit_pieces, find_identified_pair
from .network import (
    AffineMap,
    NetworkFormatError,
    load_network,
    maxout_structure,
    network_to_dict,
    rectifier_structure,
)
from .regions import (
    EnumerationError,
    FeasibilityConfig,
    RegionBudgetError,
    enumerate_regions,
    oracle_count_by_grid,
    region_polygons_2d,
)
from .reports import region_svg, render_region_report, write_polygon_csv
from .serialize import render_json


# --------------------------------------------------------------------------
# small parsers shared by several subcommands

def _numbers(kind):
    """The argparse ``type=`` of a comma-separated list of ``kind`` numbers,
    read as a tuple.  Every item must parse: an empty or malformed one is a
    usage error, which argparse reports under the flag's name."""
    def parse(text: str) -> tuple:
        try:
            return tuple(kind(t) for t in text.split(","))
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"not a comma-separated {kind.__name__} list: {text!r}") from None
    return parse


_ints, _floats = _numbers(int), _numbers(float)


def _tolerance(text: str) -> float:
    """A finite float >= 0; anything else is a usage error."""
    try:
        value = float(text)
        if 0 <= value < math.inf:
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"not a finite number >= 0: {text!r}")


def _rows(text: str) -> tuple:
    """``c1,c2;d1,d2``: one float list per ``;``-separated row."""
    return tuple(_floats(row) for row in text.split(";"))


def _box_spec(text: str):
    """A halfwidth (``3.0``) or explicit bound pairs ``lo,hi;lo,hi``."""
    if ";" not in text and "," not in text:
        return _floats(text)[0]
    pairs = _rows(text)
    for chunk, pair in zip(text.split(";"), pairs):
        if len(pair) != 2 or pair[0] >= pair[1]:
            raise argparse.ArgumentTypeError(f"bad interval {chunk!r} in box spec")
    return pairs


def _feasibility(args, n0: int) -> FeasibilityConfig:
    kw = {}
    box = getattr(args, "box", None)
    if isinstance(box, float):
        kw["box_halfwidth"] = box
    elif box is not None:  # a single pair is broadcast over all inputs
        pairs = box * n0 if len(box) == 1 else box
        if len(pairs) != n0:
            raise ValueError(f"box spec has {len(pairs)} intervals for {n0} inputs")
        kw["box"] = pairs
    if getattr(args, "cap", None) is not None:
        if args.cap < 0:
            raise ValueError("--cap must be >= 0")
        kw["region_cap"] = args.cap
    return FeasibilityConfig(exact_rational=getattr(args, "exact_rational", False), **kw)


def _load_net(path: str):
    return load_network(sys.stdin if path == "-" else path)


def _emit(text: str, path: str | None) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fp:
            fp.write(text)


def _check_dim(flag: str, count: int, n0: int) -> None:
    if count != n0:
        raise ValueError(f"{flag} has {count} coordinates, the network has {n0} inputs")


def _readout_from(args, width: int) -> AffineMap | None:
    """The ``--readout`` map, whose rows must each have ``width`` columns,
    the width of the network's last layer."""
    rows = args.readout
    if rows is None:
        return None
    for row in rows:
        if len(row) != width:
            raise ValueError(f"--readout has a row of {len(row)} columns, "
                             f"the network's last layer has {width} units")
    offset = np.zeros(len(rows)) if args.readout_offset is None else args.readout_offset
    if len(offset) != len(rows):
        raise ValueError(f"--readout-offset has {len(offset)} entries, "
                         f"--readout has {len(rows)} rows")
    return AffineMap(np.array(rows), offset)


def _map_dict(m: AffineMap) -> dict:
    return {"matrix": m.matrix.tolist(), "offset": m.offset.tolist()}


# --------------------------------------------------------------------------
# subcommands

def cmd_bounds(args) -> int:
    if args.maxout_rank is not None:
        structure = maxout_structure(args.n0, args.widths, args.maxout_rank)
    else:
        structure = rectifier_structure(args.n0, args.widths)
    rep = bound_report(structure)
    if args.format == "json":
        _emit(render_json(report_to_dict(rep)), args.output)
    else:
        _emit(report_to_text(rep), args.output)
    return 0


# --kind: the builder of each witness, in the order --help lists them
_BUILDERS = {
    "sawtooth": lambda a: (sawtooth_network(a.p, n0=a.n0) if a.theta is None
                           else sawtooth_with_threshold(a.p, a.theta)),
    "folding": lambda a: build_folding_rectifier_net(a.n0, a.widths, seed=a.seed,
                                                     refined=not a.unrefined),
    "abs": lambda a: build_abs_net(),
    "parallel": lambda a: build_maxout_parallel(a.n, a.m, a.k),
    "rank2-rectifier": lambda a: build_rank2_maxout_as_rectifier(a.n0, a.L, seed=a.seed),
    "cones": lambda a: build_maxout_cones(a.n0, a.L, a.k, rotation=a.rotation),
    "shi": lambda a: build_shi_layer(a.n),
    "catalan": lambda a: build_catalan_layer(a.n),
}


def cmd_construct(args) -> int:
    try:
        con = _BUILDERS[args.kind](args)
    except ConstructionError as exc:
        print(f"construction failed: {exc}", file=sys.stderr)
        return 1
    certificate = None
    if isinstance(con, SimulationPair):  # emit the rectifier simulation
        con, certificate = con.rectifier, con.certificate
    _emit(render_json(network_to_dict(con.network)), args.output)
    if args.witness_out:
        doc = con.spec.to_dict()
        if certificate is not None:
            doc["certificate"] = certificate
        _emit(render_json(doc), args.witness_out)
    return 0


def cmd_enumerate(args) -> int:
    net = _load_net(args.network)
    rs = enumerate_regions(net, _feasibility(args, net.input_dim))
    if args.format == "json":
        _emit(render_region_report(rs), args.output)
    else:
        _emit(f"regions: {rs.count}\n", args.output)
    if args.expect is not None and rs.count != args.expect:
        print(f"expectation failed: counted {rs.count} regions, expected {args.expect}",
              file=sys.stderr)
        return 1
    return 0


def cmd_oracle(args) -> int:
    net = _load_net(args.network)
    cfg = _feasibility(args, net.input_dim)
    box = cfg.resolved_box(net.input_dim)
    if args.step is not None:
        if not 0 < args.step < np.inf:
            raise ValueError("--step must be a positive number")
        span = max(hi - lo for lo, hi in box)  # no cell is wider than the step
        resolution = max(2, round(span / args.step))
    else:
        resolution = args.resolution
    _emit(f"{oracle_count_by_grid(net, box, resolution)}\n", args.output)
    return 0


def cmd_regions2d(args) -> int:
    net = _load_net(args.network)
    rs = enumerate_regions(net, _feasibility(args, net.input_dim))
    polygons = region_polygons_2d(rs)
    if args.csv:
        buf = io.StringIO()
        write_polygon_csv(rs, buf, polygons)
        _emit(buf.getvalue(), args.csv)
    if args.svg:
        _emit(region_svg(rs, polygons), args.svg)
    print(f"regions: {rs.count}")
    return 0


def cmd_linmap(args) -> int:
    net = _load_net(args.network)
    points = sys.stdin if args.points == "-" else args.points
    samples = np.loadtxt(points, delimiter=",", ndmin=2)
    if samples.size:  # an empty file has no pieces, whatever its column count
        _check_dim("--points", samples.shape[1], net.input_dim)
    readout = _readout_from(args, net.layers[-1].width)
    pieces = enumerate_unit_pieces(net, args.layer, args.unit, samples,
                                   readout=readout, tol=args.tol)
    doc = [{"map": _map_dict(p.map),
            "representative": p.representative.tolist(),
            "activation": p.activation} for p in pieces]
    _emit(render_json(doc), args.output)
    return 0


def cmd_identify(args) -> int:
    net = _load_net(args.network)
    for flag, x in (("--x1", args.x1), ("--x2", args.x2)):
        _check_dim(flag, len(x), net.input_dim)
        if not np.isfinite(x).all():
            raise ValueError(f"{flag} is not finite: {','.join(map(str, x))}")
    readout = _readout_from(args, net.layers[-1].width)
    try:
        pair = find_identified_pair(net, args.layer, args.unit, args.x1, args.x2,
                                    target_tol=args.target_tol, readout=readout)
    except (IdentificationError, ValueError) as exc:
        print(f"identification failed: {exc}", file=sys.stderr)
        return 1
    doc = {"point": pair.point.tolist(), "same_region": pair.same_region,
           "map1": _map_dict(pair.map1), "map2": _map_dict(pair.map2)}
    _emit(render_json(doc), args.output)
    return 0


def cmd_verify_all(args) -> int:
    results = run_all(seed=args.seed)
    _emit(format_table(results), args.output)
    return 0 if all(r.passed for r in results) else 1


# --------------------------------------------------------------------------

def _add_output(p):
    p.add_argument("-o", "--output", metavar="FILE",
                   help="write to FILE instead of stdout")


def _add_enum_flags(p):
    p.add_argument("--box", type=_box_spec, metavar="SPEC",
                   help="halfwidth B for [-B,B]^n, or 'lo,hi;lo,hi' per input")
    p.add_argument("--cap", type=int, metavar="N",
                   help="abort once more than N regions are alive (exit 3)")
    p.add_argument("--exact-rational", action="store_true",
                   help="count every cell that is non-empty in exact rational "
                        "arithmetic, however thin")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pwlregions",
        description="Exact linear-region analysis for small piecewise-linear networks.",
        epilog="Exit codes: 0 ok, 1 failed expectation, 2 usage/input error, 3 region cap.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser(
        "bounds",
        help="closed-form count bounds for a layer structure",
        description="Closed-form region-count bounds: the shallow binomial-sum "
                    "maximum, the 2^N activation-pattern upper bound, folding "
                    "lower bounds for deep rectifier stacks (plain and "
                    "remainder-refined), and envelope bounds for maxout layers.")
    p.add_argument("--n0", type=int, required=True, help="input dimension")
    p.add_argument("--widths", type=_ints, required=True, metavar="W1,W2,...")
    p.add_argument("--maxout-rank", type=int, default=None, metavar="K",
                   help="treat every unit as a rank-K maxout instead of a rectifier")
    p.add_argument("--format", choices=("json", "text"), default="text")
    _add_output(p)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser(
        "construct",
        help="emit a witness network as JSON",
        description="Build a witness network whose region count realizes a "
                    "known formula: sawtooth (p+1 pieces; 2p+1 with --theta), "
                    "folding (replicated-brick lower bound), abs (4 quadrants), "
                    "parallel maxout (k^min(n,m)), rank2-rectifier (rectifier "
                    "simulation of a rank-2 maxout stack), cones (k^(L-1+n0) "
                    "lower bound), shi ((n+1)^(n-1)), catalan (n!*Catalan(n)).")
    p.add_argument("--kind", choices=_BUILDERS, required=True)
    p.add_argument("--p", type=int, default=3, help="sawtooth fold count")
    p.add_argument("--theta", type=float, default=None,
                   help="sawtooth threshold in (0,1): compose a step readout")
    p.add_argument("--n0", type=int, default=1, help="input dimension")
    p.add_argument("--widths", type=_ints, default=(2, 2), metavar="W1,W2,...",
                   help="folding layer widths")
    p.add_argument("--n", type=int, default=3, help="parallel/shi/catalan dimension")
    p.add_argument("--m", type=int, default=2, help="parallel unit count")
    p.add_argument("--k", type=int, default=2, help="maxout rank")
    p.add_argument("--L", type=int, default=2, help="depth for rank2/cones")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--unrefined", action="store_true",
                   help="folding: leave remainder units unused instead of refining")
    p.add_argument("--rotation", type=float, default=1e-2,
                   help="cones: per-layer rotation angle of the gradient fan")
    p.add_argument("--witness-out", metavar="FILE",
                   help="also write the predicted-count record as JSON")
    _add_output(p)
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser(
        "enumerate",
        help="exact region enumeration of a network file",
        description="Enumerate every full-dimensional linear region inside the "
                    "box and print a JSON report (pattern, witness, affine map, "
                    "bounding constraints per region).")
    p.add_argument("network", help="network JSON file, or - for stdin")
    p.add_argument("--expect", type=int, metavar="N",
                   help="exit 1 unless exactly N regions are counted")
    p.add_argument("--format", choices=("json", "text"), default="json")
    _add_enum_flags(p)
    _add_output(p)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser(
        "oracle",
        help="distinct activation patterns on a sampling grid",
        description="Count distinct activation patterns at one generic sample "
                    "point per grid cell; an independent cross-check of "
                    "enumerate for 1- and 2-input networks.")
    p.add_argument("network", help="network JSON file, or - for stdin")
    p.add_argument("--resolution", type=int, default=400, metavar="R",
                   help="grid cells per axis (default 400)")
    p.add_argument("--step", type=float, default=None,
                   help="grid cell width; overrides --resolution")
    p.add_argument("--box", type=_box_spec, metavar="SPEC",
                   help="halfwidth B, or 'lo,hi;lo,hi' per input")
    _add_output(p)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser(
        "regions2d",
        help="polygon CSV / SVG export for two-input networks",
        description="Export the polygons of a two-input network's regions, read "
                    "from the vertices the enumeration carries (CSV vertices "
                    "and/or an SVG picture colored by activation pattern).")
    p.add_argument("network", help="network JSON file, or - for stdin")
    p.add_argument("--csv", metavar="FILE", help="write region_id,vertex_index,x,y rows")
    p.add_argument("--svg", metavar="FILE", help="write an SVG rendering")
    _add_enum_flags(p)
    p.set_defaults(func=cmd_regions2d)

    p = sub.add_parser(
        "linmap",
        help="per-unit affine pieces observed at sample points",
        description="Evaluate one unit's local affine map at every sample "
                    "point (CSV, one point per row) and list the distinct "
                    "pieces with a representative point and activation value.")
    p.add_argument("network", help="network JSON file, or - for stdin")
    p.add_argument("--layer", type=int, required=True, help="0-based layer index")
    p.add_argument("--unit", type=int, required=True, help="0-based unit index")
    p.add_argument("--points", required=True, metavar="CSV",
                   help="sample points, one comma-separated row each; - for stdin")
    p.add_argument("--readout", type=_rows, metavar="ROWS",
                   help="optional linear readout 'c1,c2;d1,d2' applied after the net")
    p.add_argument("--readout-offset", type=_floats, metavar="O1,O2,...")
    p.add_argument("--tol", type=_tolerance, default=1e-8,
                   help="coefficient tolerance for merging pieces")
    _add_output(p)
    p.set_defaults(func=cmd_linmap)

    p = sub.add_parser(
        "identify",
        help="equal-output point probe between two regions",
        description="Starting from two points where the tracked unit is "
                    "active, move the second along its local gradient until "
                    "both produce the same value; fails if a region boundary "
                    "intervenes.")
    p.add_argument("network", help="network JSON file, or - for stdin")
    p.add_argument("--layer", type=int, required=True, help="0-based layer index")
    p.add_argument("--unit", type=int, required=True, help="0-based unit index")
    p.add_argument("--x1", type=_floats, required=True, metavar="A,B,...",
                   help="first point (use --x1=-1,2 for negative values)")
    p.add_argument("--x2", type=_floats, required=True, metavar="A,B,...",
                   help="second point, to be adjusted")
    p.add_argument("--target-tol", type=_tolerance, default=1e-10,
                   help="largest miss of the target value (finite, >= 0)")
    p.add_argument("--readout", type=_rows, metavar="ROWS",
                   help="optional linear readout; the unit indexes its rows")
    p.add_argument("--readout-offset", type=_floats, metavar="O1,O2,...")
    _add_output(p)
    p.set_defaults(func=cmd_identify)

    p = sub.add_parser(
        "verify-all",
        help="run the acceptance suite and print its table",
        description="Run every acceptance criterion at the given seed and "
                    "print one PASS/FAIL line each; exits 0 only if all pass.")
    p.add_argument("--seed", type=int, default=0)
    _add_output(p)
    p.set_defaults(func=cmd_verify_all)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except RegionBudgetError as exc:
        print(f"region cap exceeded: {exc.partial_count} regions alive at cap "
              f"{exc.cap} at {exc.where}", file=sys.stderr)
        return 3
    except NetworkFormatError as exc:
        print(f"bad network file: {exc}", file=sys.stderr)
        return 2
    except (EnumerationError, IndexError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
