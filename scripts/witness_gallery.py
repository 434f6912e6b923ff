#!/usr/bin/env python3
"""Build every witness construction, enumerate it, and compare the count
against its prediction; optionally export SVG pictures of the 2-input ones.

Example:
    python3 scripts/witness_gallery.py --out-dir gallery --seed 0
"""

import argparse
import os

from pwlregions.constructions import (
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
from pwlregions.regions import FeasibilityConfig, enumerate_regions
from pwlregions.reports import region_svg


def gallery(seed: int):
    """(name, construction, drawing halfwidth or None to use --box)."""
    yield "sawtooth p=3", sawtooth_network(3), None
    yield "sawtooth p=3 thresholded", sawtooth_with_threshold(3, 0.5), None
    yield "abs", build_abs_net(), None
    yield "folding 1d (2,2)", build_folding_rectifier_net(1, (2, 2), seed=seed), None
    yield "folding 2d (4,4)", build_folding_rectifier_net(2, (4, 4), seed=seed), None
    yield "folding 2d (5,3)", build_folding_rectifier_net(2, (5, 3), seed=seed), None
    yield "parallel maxout (2,2,3)", build_maxout_parallel(2, 2, 3), None
    yield "difference arrangement n=3 (rank 3)", build_shi_layer(3), None
    yield "difference arrangement n=3 (rank 4)", build_catalan_layer(3), None
    pair = build_rank2_maxout_as_rectifier(2, 2, seed=seed)
    yield "rank-2 maxout folding (2,2)", pair.maxout, None
    yield f"rank-2 rectifier sim (cert {pair.certificate:.1e})", pair.rectifier, None
    # the cone fans break far from the origin; draw wide enough to see them
    yield "maxout cones k=3", build_maxout_cones(2, 2, 3), 400.0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out-dir", default=None,
                    help="write an SVG per 2-input witness into this directory")
    ap.add_argument("--box", type=float, default=3.0,
                    help="drawing halfwidth for witnesses without an exactness box")
    args = ap.parse_args()
    if args.out_dir:
        os.makedirs(args.out_dir, exist_ok=True)

    print(f"{'witness':<42} {'predicted':>9} {'counted':>8}  note")
    for name, con, draw_halfwidth in gallery(args.seed):
        # counting happens over the witness's own box (or the library
        # default); the --box flag only frames the exported picture
        if con.spec.count_box is not None:
            count_cfg = FeasibilityConfig(box=con.spec.count_box)
        else:
            count_cfg = FeasibilityConfig()
        rs = enumerate_regions(con.network, count_cfg)
        relation = "==" if con.spec.exact else ">="
        ok = rs.count == con.spec.predicted_count if con.spec.exact \
            else rs.count >= con.spec.predicted_count
        note = "ok" if ok else "MISMATCH"
        print(f"{name:<42} {con.spec.predicted_count:>9} {rs.count:>8}  "
              f"({relation} predicted: {note})")
        if args.out_dir and con.network.input_dim == 2:
            if con.spec.count_box is not None:
                draw = rs
            else:
                b = draw_halfwidth if draw_halfwidth is not None else args.box
                draw = enumerate_regions(con.network,
                                         FeasibilityConfig(box_halfwidth=b))
            slug = "".join(c if c.isalnum() else "_" for c in name)
            path = os.path.join(args.out_dir, f"{slug}.svg")
            with open(path, "w") as fp:
                fp.write(region_svg(draw))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
