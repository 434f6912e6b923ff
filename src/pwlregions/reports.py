"""Deterministic report rendering: region JSON, polygon CSV, and SVG."""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
from typing import IO

import numpy as np

from .regions import RegionSet, region_polygons_2d
from .network import pattern_code
from .serialize import Rendered, float_texts, render_json, render_template


def _box_field(box) -> float | list:
    """The report's box field: a single halfwidth when the box is the
    symmetric cube [-B, B]^n, otherwise the explicit bound pairs."""
    halfwidths = {(-lo, hi) for lo, hi in box}
    if len(halfwidths) == 1:
        b = next(iter(halfwidths))
        if b[0] == b[1]:
            return float(b[0])
    return [[float(lo), float(hi)] for lo, hi in box]


def region_report(rs: RegionSet) -> dict:
    regions = []
    for r in rs.regions:
        regions.append({
            "pattern": pattern_code(r.pattern),
            "witness": r.witness.tolist(),
            "affine": {
                "matrix": r.affine.matrix.tolist(),
                "offset": r.affine.offset.tolist(),
            },
            "constraints": np.column_stack([r.normals, r.offsets]).tolist(),
        })
    return {"count": rs.count, "box": _box_field(rs.box), "regions": regions}


def render_region_report(rs: RegionSet) -> str:
    """``render_json(region_report(rs))``, byte for byte.  A region's layout
    depends only on its arrays' shapes: each shape's template is rendered
    once, from float64 copies of its first region's arrays, at level 2 (in
    the report's list of regions), and filled in one ``%`` per region."""
    templates: dict = {}
    fills, flats = [], [np.zeros(0)]  # np.concatenate needs an array
    for r in rs.regions:
        arrays = (r.witness, r.affine.matrix, r.affine.offset,
                  np.column_stack([r.normals, r.offsets]))
        shape = tuple(a.shape for a in arrays)
        if shape not in templates:  # an integer would print as a literal, not a slot
            floats = dataclasses.replace(r, witness=np.asarray(r.witness, float),
                                         normals=np.asarray(r.normals, float),
                                         offsets=np.asarray(r.offsets, float))
            (entry,) = region_report(RegionSet((floats,), rs.box))["regions"]
            templates[shape] = render_template(entry, level=2)
        flats.append(np.concatenate(arrays, axis=None, dtype=float))
        fills.append((templates[shape], json.dumps(pattern_code(r.pattern)), flats[-1].size))
    texts = iter(float_texts(np.concatenate(flats)))
    regions = [Rendered(t % (code, *itertools.islice(texts, n))) for t, code, n in fills]
    empty = region_report(RegionSet((), rs.box))
    return render_json({**empty, "count": rs.count, "regions": regions})


def write_polygon_csv(rs: RegionSet, out: IO[str], polygons=None) -> None:
    """Rows region_id,vertex_index,x,y for every polygon vertex."""
    if polygons is None:
        polygons = region_polygons_2d(rs)
    out.write("region_id,vertex_index,x,y\n")
    for rid, poly in enumerate(polygons):
        for vi, (x, y) in enumerate(poly):
            out.write(f"{rid},{vi},{format(float(x), '.17g')},{format(float(y), '.17g')}\n")


def _pattern_hue(code: str) -> int:
    digest = hashlib.md5(code.encode("ascii")).hexdigest()
    return int(digest[:8], 16) % 360


def region_svg(rs: RegionSet, polygons=None) -> str:
    """Standalone 480-pixel-square SVG, one path per region, hue hashed
    from the pattern code so colors are stable across runs and platforms."""
    size = 480
    if polygons is None:
        polygons = region_polygons_2d(rs)
    (x0, x1), (y0, y1) = rs.box
    span = max(x1 - x0, y1 - y0)
    scale = (size - 20) / span

    def sx(v):
        return 10 + (v - x0) * scale

    def sy(v):
        return size - 10 - (v - y0) * scale   # flip: y grows upward

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'<rect x="0" y="0" width="{size}" height="{size}" fill="white"/>',
    ]
    for r, poly in zip(rs.regions, polygons):
        if len(poly) < 3:
            continue
        code = pattern_code(r.pattern)
        pts = " ".join(f"{sx(px):.4f},{sy(py):.4f}" for px, py in poly)
        parts.append(
            f'<polygon points="{pts}" fill="hsl({_pattern_hue(code)},70%,78%)" '
            f'stroke="#333333" stroke-width="0.8"/>'
        )
    for r in rs.regions:
        parts.append(
            f'<circle cx="{sx(r.witness[0]):.4f}" cy="{sy(r.witness[1]):.4f}" '
            f'r="2" fill="#111111"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
