"""The output bytes of every shipped witness, pinned in float and exact mode."""

import hashlib
import io

import pytest

from pwlregions.constructions import (
    build_abs_net,
    build_catalan_layer,
    build_folding_rectifier_net,
    build_maxout_cones,
    build_maxout_parallel,
    build_rank2_folding_maxout,
    build_rank2_maxout_as_rectifier,
    build_shi_layer,
    sawtooth_network,
    sawtooth_with_threshold,
)
from pwlregions.regions import FeasibilityConfig, enumerate_regions, region_polygons_2d
from pwlregions.reports import region_svg, render_region_report, write_polygon_csv

WITNESSES = {
    "shi(2)": lambda: build_shi_layer(2),
    "shi(3)": lambda: build_shi_layer(3),
    "shi(4)": lambda: build_shi_layer(4),
    "catalan(2)": lambda: build_catalan_layer(2),
    "catalan(3)": lambda: build_catalan_layer(3),
    "catalan(4)": lambda: build_catalan_layer(4),
    "parallel(2,2,3)": lambda: build_maxout_parallel(2, 2, 3),
    "parallel(2,2,4)": lambda: build_maxout_parallel(2, 2, 4),
    "parallel(2,3,3)": lambda: build_maxout_parallel(2, 3, 3),
    "parallel(3,3,2)": lambda: build_maxout_parallel(3, 3, 2),
    "parallel(3,2,3)": lambda: build_maxout_parallel(3, 2, 3),
    "parallel(1,2,4)": lambda: build_maxout_parallel(1, 2, 4),
    "parallel(3,3,3)": lambda: build_maxout_parallel(3, 3, 3),
    "folding(1;2,2)": lambda: build_folding_rectifier_net(1, (2, 2)),
    "folding(1;3,3)": lambda: build_folding_rectifier_net(1, (3, 3)),
    "folding(1;4,4)": lambda: build_folding_rectifier_net(1, (4, 4)),
    "folding(1;2,2,2)": lambda: build_folding_rectifier_net(1, (2, 2, 2)),
    "folding(2;4,4)": lambda: build_folding_rectifier_net(2, (4, 4)),
    "folding(2;5,3)": lambda: build_folding_rectifier_net(2, (5, 3)),
    "folding(2;2,2,2)": lambda: build_folding_rectifier_net(2, (2, 2, 2)),
    "folding(3;4,4)": lambda: build_folding_rectifier_net(3, (4, 4)),
    "folding(3;3,3)": lambda: build_folding_rectifier_net(3, (3, 3)),
    "rank2-folding(1,3)": lambda: build_rank2_folding_maxout(1, 3),
    "rank2-folding(1,4)": lambda: build_rank2_folding_maxout(1, 4),
    "rank2-folding(2,2)": lambda: build_rank2_folding_maxout(2, 2),
    "rank2-folding(2,3)": lambda: build_rank2_folding_maxout(2, 3),
    "rank2-folding(3,2)": lambda: build_rank2_folding_maxout(3, 2),
    "cones(2,2,2)": lambda: build_maxout_cones(2, 2, 2),
    "cones(2,2,3)": lambda: build_maxout_cones(2, 2, 3),
    "cones(2,2,4)": lambda: build_maxout_cones(2, 2, 4),
    "cones(1,3,2)": lambda: build_maxout_cones(1, 3, 2),
    "cones(2,3,3)": lambda: build_maxout_cones(2, 3, 3),
    "abs": build_abs_net,
    "sawtooth(3)": lambda: sawtooth_network(3),
    "sawtooth(4)": lambda: sawtooth_network(4),
    "sawtooth(5)": lambda: sawtooth_network(5),
    "sawtooth(2,n0=2)": lambda: sawtooth_network(2, n0=2),
    "sawtooth(3,theta)": lambda: sawtooth_with_threshold(3, 0.5),
    "rank2-sim(2,2)": lambda: build_rank2_maxout_as_rectifier(2, 2).rectifier,
    "rank2-sim(1,3)": lambda: build_rank2_maxout_as_rectifier(1, 3).rectifier,
}

# Per witness: (count, sha256) in float mode, then in exact mode.
PINS = {
    "shi(2)": (3, "6f21e3bc56890deb6907e3191a8f67628eaf33bddc961a29a54d1eae9f12aab6",
              3, "6f21e3bc56890deb6907e3191a8f67628eaf33bddc961a29a54d1eae9f12aab6"),
    "shi(3)": (16, "99674b3f394c739d21a2bad982e5344d09716f1c81bae1581d39adf6f843aece",
              16, "99674b3f394c739d21a2bad982e5344d09716f1c81bae1581d39adf6f843aece"),
    "shi(4)": (125, "7be254b1a29dc659fc6c751b40406cbfe2a9eec9a6251b7e77fa152f3aa963d5",
              125, "7be254b1a29dc659fc6c751b40406cbfe2a9eec9a6251b7e77fa152f3aa963d5"),
    "catalan(2)": (4, "41911aa842a02347909f6199363b3d52d2817ce0c6fdc719c254f72f0c2f35ee",
                  4, "41911aa842a02347909f6199363b3d52d2817ce0c6fdc719c254f72f0c2f35ee"),
    "catalan(3)": (30, "7171058bb9a08e3143b044c2ae653e2c63825f89737bf631535e4d6059490906",
                  30, "7171058bb9a08e3143b044c2ae653e2c63825f89737bf631535e4d6059490906"),
    "catalan(4)": (336, "9ed4d6b65d06ab641ffa4ac3f9b81e7e2a15870d8705b3ce10273205d2caaf57",
                  336, "9ed4d6b65d06ab641ffa4ac3f9b81e7e2a15870d8705b3ce10273205d2caaf57"),
    "parallel(2,2,3)": (9, "38ed4b84fe176a59d804dfd17421afce63a423ef4194e7ebb43eda863c79706f",
                       9, "38ed4b84fe176a59d804dfd17421afce63a423ef4194e7ebb43eda863c79706f"),
    "parallel(2,2,4)": (16, "a7c71c2dd6dbda53f291f6fa1accb38310adbe1d1e15c5fcd340dbd581a9c592",
                       16, "a7c71c2dd6dbda53f291f6fa1accb38310adbe1d1e15c5fcd340dbd581a9c592"),
    "parallel(2,3,3)": (9, "0f944b78a562948dff94781d2f273704bb80c4278ccfa10d264aadbca75e14b9",
                       9, "0f944b78a562948dff94781d2f273704bb80c4278ccfa10d264aadbca75e14b9"),
    "parallel(3,3,2)": (8, "655c71c1d720595cdb6b24eda913970e202ce6718c7605695f6ec68d357497bb",
                       8, "655c71c1d720595cdb6b24eda913970e202ce6718c7605695f6ec68d357497bb"),
    "parallel(3,2,3)": (9, "3fde319c16a8fbf56991d2e4c4a7a964f3b48067bc7c776bb2b44f41496cfee9",
                       9, "3fde319c16a8fbf56991d2e4c4a7a964f3b48067bc7c776bb2b44f41496cfee9"),
    "parallel(1,2,4)": (4, "7029cecfcaea73ade2995b04d447ac963632d610fdd04a96c46a62e5a142a416",
                       4, "7029cecfcaea73ade2995b04d447ac963632d610fdd04a96c46a62e5a142a416"),
    "parallel(3,3,3)": (27, "7b39ffbd2923b1d9ca335e7d449f6bd95f3d1605d1959060257bc54e0badbf66",
                       27, "7b39ffbd2923b1d9ca335e7d449f6bd95f3d1605d1959060257bc54e0badbf66"),
    "folding(1;2,2)": (6, "74632e850fddd924f9deef0f21ac09d7c7fc8abf888a0167f65e4467a7756479",
                      6, "74632e850fddd924f9deef0f21ac09d7c7fc8abf888a0167f65e4467a7756479"),
    "folding(1;3,3)": (12, "31d8d61dcd9e1fe54a781fd5fb03a8140c260ed9ddb406e0787b6bd4b383cfc2",
                      12, "31d8d61dcd9e1fe54a781fd5fb03a8140c260ed9ddb406e0787b6bd4b383cfc2"),
    "folding(1;4,4)": (20, "f9ccc9e16f22d5a61ed1bfaea56806cc2a5c68701b9ee3884a34e9189841fa57",
                      20, "f9ccc9e16f22d5a61ed1bfaea56806cc2a5c68701b9ee3884a34e9189841fa57"),
    "folding(1;2,2,2)": (12, "ca9e6e4dae1603e1ac15706b2fd600155a0ff0885186fcb22c800603101fcb18",
                        12, "ca9e6e4dae1603e1ac15706b2fd600155a0ff0885186fcb22c800603101fcb18"),
    "folding(2;4,4)": (44, "404a213cff9c12f3807eeb71cf429bd26ee51747e65b6496d97c19e1fb6af331",
                      44, "404a213cff9c12f3807eeb71cf429bd26ee51747e65b6496d97c19e1fb6af331"),
    "folding(2;5,3)": (42, "4cd41136217823c7857fc0ec7993149d04e87fba59cbf209cf0c9aa1bd719452",
                      42, "4cd41136217823c7857fc0ec7993149d04e87fba59cbf209cf0c9aa1bd719452"),
    "folding(2;2,2,2)": (4, "5b0e966acde47b75638ea3e81d6c55e38a9382d5e25629f9a9add58efcef8f6c",
                        4, "5b0e966acde47b75638ea3e81d6c55e38a9382d5e25629f9a9add58efcef8f6c"),
    "folding(3;4,4)": (30, "c94646e8a6e51c4e200bab67da4b60f6d4cdfd9c9919ccf11147cede00f0f03a",
                      30, "c94646e8a6e51c4e200bab67da4b60f6d4cdfd9c9919ccf11147cede00f0f03a"),
    "folding(3;3,3)": (8, "01ce34b713b80bc0532c5f910190fc55156a9204b8dc8db68cd9d84e9743eff2",
                      8, "01ce34b713b80bc0532c5f910190fc55156a9204b8dc8db68cd9d84e9743eff2"),
    "rank2-folding(1,3)": (8, "3e591cf2280be124021c3d39c3d8dfb5fb5f4ef3a3a2ae40d38f3bde7b8cc89b",
                          8, "3e591cf2280be124021c3d39c3d8dfb5fb5f4ef3a3a2ae40d38f3bde7b8cc89b"),
    "rank2-folding(1,4)": (16, "46200496752fad6f13db20198f54ba5cf12d19b0983093a34b9637974612b622",
                          16, "46200496752fad6f13db20198f54ba5cf12d19b0983093a34b9637974612b622"),
    "rank2-folding(2,2)": (16, "787d6d9c0f5dcc2f74d3c91c0ac91f7ca58a810448a6a7f24697cb0373285700",
                          16, "787d6d9c0f5dcc2f74d3c91c0ac91f7ca58a810448a6a7f24697cb0373285700"),
    "rank2-folding(2,3)": (64, "b0667b13533639c95e2920f967b06c85f9bbcfca05a3983b07f48d11d0f8ddc6",
                          64, "b0667b13533639c95e2920f967b06c85f9bbcfca05a3983b07f48d11d0f8ddc6"),
    "rank2-folding(3,2)": (64, "ba7825104b8e72950a7ca0d8f13221ab9fc4aa2ac8396e6e73f84c22fdd4466a",
                          64, "ba7825104b8e72950a7ca0d8f13221ab9fc4aa2ac8396e6e73f84c22fdd4466a"),
    "cones(2,2,2)": (16, "787d6d9c0f5dcc2f74d3c91c0ac91f7ca58a810448a6a7f24697cb0373285700",
                    16, "787d6d9c0f5dcc2f74d3c91c0ac91f7ca58a810448a6a7f24697cb0373285700"),
    "cones(2,2,3)": (46, "b2371e51190504edcebd7d01f0ad0716c2f74c3b904ae54cbdb49efd63266433",
                    46, "b2371e51190504edcebd7d01f0ad0716c2f74c3b904ae54cbdb49efd63266433"),
    "cones(2,2,4)": (128, "71a07e40725d1b8a6181dddacf52304e30d9417b2a5eadc6be5f59b1b5474496",
                    128, "71a07e40725d1b8a6181dddacf52304e30d9417b2a5eadc6be5f59b1b5474496"),
    "cones(1,3,2)": (8, "3e591cf2280be124021c3d39c3d8dfb5fb5f4ef3a3a2ae40d38f3bde7b8cc89b",
                    8, "3e591cf2280be124021c3d39c3d8dfb5fb5f4ef3a3a2ae40d38f3bde7b8cc89b"),
    # Exact mode counts the cells of the rows as composed in float: two of
    # these 115 are empty for the network, which has the 113 that float
    # mode finds.  Composing exact mode's rows exactly moves this pin to 113.
    "cones(2,3,3)": (113, "322151ec5d575d0198f370a621963e7fb2c2508dfc88179768d8a235fb561ec7",
                    115, "b2471c239bd5a9765ac431967ae053473c2f7d6bc0bf73350134687606d20382"),
    "abs": (4, "b599ae7e99be36bac1989a6ade44cc3018d44b38ff8bca12778fa8948d836835",
           4, "b599ae7e99be36bac1989a6ade44cc3018d44b38ff8bca12778fa8948d836835"),
    "sawtooth(3)": (4, "bbc985f92626f2274dfbaf27d773a44d58e4f08461124e51e68b3974ffb02a32",
                   4, "bbc985f92626f2274dfbaf27d773a44d58e4f08461124e51e68b3974ffb02a32"),
    "sawtooth(4)": (5, "013df394f26a12998c72ff12234dc9ff634e3c6e15202168a5bdcdbed9858b30",
                   5, "013df394f26a12998c72ff12234dc9ff634e3c6e15202168a5bdcdbed9858b30"),
    "sawtooth(5)": (6, "2830add8b651f5a330c350429f3f37c080be70b4252438d1f1052560ba3bde17",
                   6, "2830add8b651f5a330c350429f3f37c080be70b4252438d1f1052560ba3bde17"),
    "sawtooth(2,n0=2)": (3, "32ac327249aa28dc1f902ad791a41ca472dbc8962eded8c3f6c82542a315245c",
                        3, "32ac327249aa28dc1f902ad791a41ca472dbc8962eded8c3f6c82542a315245c"),
    "sawtooth(3,theta)": (7, "39fcd92457d39d363d5c77ba367d534470b419109f4797e378d34098dd39bfb4",
                         7, "39fcd92457d39d363d5c77ba367d534470b419109f4797e378d34098dd39bfb4"),
    "rank2-sim(2,2)": (16, "6e7962627496bd0df395061b642bbb938ca96bd923dc119099eb261d8cbdd673",
                      16, "6e7962627496bd0df395061b642bbb938ca96bd923dc119099eb261d8cbdd673"),
    "rank2-sim(1,3)": (8, "0f16897e9452228280c65080d6f175e8d34fe62cb5ef1c792f84d1c0ec3933e3",
                      8, "0f16897e9452228280c65080d6f175e8d34fe62cb5ef1c792f84d1c0ec3933e3"),
}


def output_bytes(name: str, exact: bool) -> tuple[int, str]:
    """The region count and the sha256 of the region report, followed, for
    a 2-input witness, by the polygon CSV and the SVG, on the witness's
    ``count_box``."""
    con = WITNESSES[name]()
    cfg = FeasibilityConfig(box=con.spec.count_box, exact_rational=exact)
    rs = enumerate_regions(con.network, cfg)
    text = render_region_report(rs)
    if con.network.input_dim == 2:
        polygons = region_polygons_2d(rs)
        csv = io.StringIO()
        write_polygon_csv(rs, csv, polygons)
        text += csv.getvalue() + region_svg(rs, polygons)
    return rs.count, hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("mode", ["float", "exact"])
@pytest.mark.parametrize("name", list(WITNESSES))
def test_witness_output_bytes(name, mode):
    float_count, float_digest, exact_count, exact_digest = PINS[name]
    pin = (float_count, float_digest) if mode == "float" else (exact_count, exact_digest)
    assert output_bytes(name, mode == "exact") == pin
