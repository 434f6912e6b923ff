"""CLI surface: subcommand output, piping, exit codes, determinism."""

import io
import json

import numpy as np
import pytest

from pwlregions.acceptance import format_table
from pwlregions.cli import main
from pwlregions.network import Layer, Network, load_network, save_network
from pwlregions.constructions import build_abs_net


@pytest.fixture()
def abs_path(tmp_path):
    p = tmp_path / "abs.json"
    save_network(build_abs_net().network, str(p))
    return str(p)


def test_bounds_text(capsys):
    assert main(["bounds", "--n0", "2", "--widths", "4,4,4"]) == 0
    out = capsys.readouterr().out
    assert "deep_lower" in out and "176" in out


def test_bounds_json(capsys):
    assert main(["bounds", "--n0", "2", "--widths", "3", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["shallow_max"] == 7
    assert main(["bounds", "--n0", "1", "--widths", "1", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["upper_2n"] == 2 and doc["deep_lower"] == 2


def test_bounds_maxout(capsys):
    assert main(["bounds", "--n0", "2", "--widths", "2,2", "--maxout-rank", "3",
                 "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["maxout_lower"] == 27


def test_construct_enumerate_pipe(tmp_path, capsys, monkeypatch):
    assert main(["construct", "--kind", "shi", "--n", "3"]) == 0
    net_json = capsys.readouterr().out
    monkeypatch.setattr("sys.stdin", io.StringIO(net_json))
    assert main(["enumerate", "-", "--expect", "16", "--format", "text"]) == 0
    assert capsys.readouterr().out == "regions: 16\n"


def test_enumerate_expectation_failure(abs_path, capsys):
    assert main(["enumerate", abs_path, "--expect", "5", "--format", "text"]) == 1
    err = capsys.readouterr().err
    assert "expected 5" in err and "counted 4" in err


def test_enumerate_report_schema(abs_path, capsys):
    assert main(["enumerate", abs_path, "--box", "1.0"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["count"] == 4
    assert doc["box"] == 1.0
    region = doc["regions"][0]
    assert set(region) == {"pattern", "witness", "affine", "constraints"}


def test_enumerate_exit_codes(abs_path, tmp_path, capsys):
    assert main(["enumerate", abs_path, "--cap", "2"]) == 3
    bad = tmp_path / "bad.json"
    bad.write_text('{"input_dim": 2}')
    assert main(["enumerate", str(bad)]) == 2
    assert main(["enumerate", str(tmp_path / "missing.json")]) == 2
    with pytest.raises(SystemExit) as exc:
        main(["enumerate"])
    assert exc.value.code == 2


@pytest.mark.parametrize("cmd", ["enumerate", "regions2d"])
def test_cap_exit_names_where_the_cap_was_hit(abs_path, cmd, capsys):
    assert main([cmd, abs_path, "--cap", "2"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("region cap exceeded: 3 regions alive at cap 2 "
                            "at layer 0, unit 2, cell '1,0'\n")


@pytest.mark.parametrize("cmd", ["enumerate", "regions2d"])
def test_enumeration_error_is_an_input_error(tmp_path, cmd, capsys):
    # x -> 1e200 * relu(1e200 * relu(x)): the second layer's map overflows
    net = tmp_path / "huge.json"
    save_network(Network(2, (Layer([[1e200, 0.0]], [0.0]), Layer([[1e200]], [0.0]))), str(net))
    assert main([cmd, str(net)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: float overflow at layer 1, cell '1'\n"


def test_enumerate_refuses_a_nan_drift(tmp_path, capsys):
    # the region map and the forward pass both overflow to inf at a witness
    net = tmp_path / "nan.json"
    save_network(Network(2, (Layer([[1e308, 1e308]], [0.0]),)), str(net))
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(["enumerate", str(net)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: affine map drifted (nan) on region 1\n"


def test_construct_witness_record(tmp_path, capsys):
    out = tmp_path / "net.json"
    wit = tmp_path / "wit.json"
    assert main(["construct", "--kind", "folding", "--n0", "2", "--widths", "4,4",
                 "-o", str(out), "--witness-out", str(wit)]) == 0
    doc = json.loads(wit.read_text())
    assert doc["predicted_count"] == 44
    net = load_network(str(out))
    assert net.widths == (4, 4)


def test_construct_certificate(tmp_path):
    wit = tmp_path / "wit.json"
    assert main(["construct", "--kind", "rank2-rectifier", "--n0", "2", "--L", "2",
                 "-o", str(tmp_path / "sim.json"), "--witness-out", str(wit)]) == 0
    doc = json.loads(wit.read_text())
    assert doc["certificate"] <= 1e-9


def test_construct_invalid_params(capsys):
    assert main(["construct", "--kind", "cones", "--n0", "3", "--k", "3"]) == 1
    assert "construction failed" in capsys.readouterr().err


@pytest.mark.parametrize("args, message", [
    (["--kind", "sawtooth", "--p", "0"], "p must be >= 1"),
    (["--kind", "shi", "--n", "1"], "need n >= 2"),
], ids=["sawtooth-p", "shi-n"])
def test_construct_bad_parameter_is_a_usage_error(args, message, capsys):
    assert main(["construct"] + args) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_oracle_subcommand(tmp_path, capsys):
    net = tmp_path / "saw.json"
    assert main(["construct", "--kind", "sawtooth", "--p", "3", "-o", str(net)]) == 0
    assert main(["oracle", str(net), "--box=-1,4", "--step", "1e-3"]) == 0
    assert capsys.readouterr().out == "4\n"


@pytest.mark.parametrize("step", ["0", "-1", "nan", "inf"])
def test_oracle_step_must_be_positive(tmp_path, step, capsys):
    # 0 divided by zero, -1 sampled at resolution 2, inf at 2 as well
    net = tmp_path / "saw.json"
    assert main(["construct", "--kind", "sawtooth", "--p", "3", "-o", str(net)]) == 0
    assert main(["oracle", str(net), "--box=-1,4", f"--step={step}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: --step must be a positive number\n"


@pytest.mark.parametrize("cmd, box, message", [
    ("enumerate", "inf", "is not finite"),
    ("oracle", "inf", "is not finite"),
    ("enumerate", "0,1;-inf,1", "is not finite"),
    ("enumerate", "1e-300", "2*feas_tol"),
    ("oracle", "1e-300", "2*feas_tol"),
], ids=["enumerate-inf", "oracle-inf", "enumerate-inf-pair", "enumerate-narrow",
        "oracle-narrow"])
def test_box_must_be_finite_and_wide(abs_path, cmd, box, message, capsys):
    assert main([cmd, abs_path, f"--box={box}"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: box side") and message in err


def test_enumerate_huge_box(tmp_path, capsys):
    # the axes x = 0 and y = 0 cut a box of halfwidth 1e300 into 4 quadrants
    net = tmp_path / "axes.json"
    save_network(Network(2, (Layer(np.eye(2), np.zeros(2)),)), str(net))
    assert main(["enumerate", str(net), "--box", "1e300", "--expect", "4",
                 "--format", "text"]) == 0
    assert capsys.readouterr().out == "regions: 4\n"


def test_regions2d_exports(abs_path, tmp_path, capsys):
    csv = tmp_path / "r.csv"
    svg = tmp_path / "r.svg"
    assert main(["regions2d", abs_path, "--box", "1.5",
                 "--csv", str(csv), "--svg", str(svg)]) == 0
    assert capsys.readouterr().out == "regions: 4\n"
    lines = csv.read_text().splitlines()
    assert lines[0] == "region_id,vertex_index,x,y"
    assert len(lines) > 12  # 4 quadrant squares, >= 3 vertices each
    body = svg.read_text()
    assert body.startswith("<svg") and body.count("<polygon") == 4


def test_linmap_subcommand(abs_path, tmp_path, capsys):
    pts = tmp_path / "pts.csv"
    np.savetxt(pts, [[0.5, 0.5], [-0.5, 0.5], [-0.5, -0.5]], delimiter=",")
    assert main(["linmap", abs_path, "--layer", "0", "--unit", "0",
                 "--points", str(pts)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc) == 1  # unit 0 active only in the right half-plane
    assert doc[0]["map"]["matrix"] == [[1.0, 0.0]]
    assert main(["linmap", abs_path, "--layer", "0", "--unit", "0",
                 "--points", str(pts), "--readout", "1,1,0,0;0,0,1,1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc) == 2  # |x| has two visible pieces at these samples


def test_identify_subcommand(abs_path, capsys):
    assert main(["identify", abs_path, "--layer", "0", "--unit", "0",
                 "--x1", "0.7,0.2", "--x2=-0.9,0.2",
                 "--readout", "1,1,0,0;0,0,1,1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["point"] == pytest.approx([-0.7, 0.2])
    assert doc["same_region"] is False
    # without the readout the unit is inactive on the left half-plane
    assert main(["identify", abs_path, "--layer", "0", "--unit", "0",
                 "--x1", "0.7,0.2", "--x2=-0.9,0.2"]) == 1
    assert "identification failed" in capsys.readouterr().err


@pytest.mark.parametrize("cmd", [
    ["linmap", "--layer", "1", "--unit", "0", "--points", "-"],
    ["linmap", "--layer", "0", "--unit=-1", "--points", "-"],
    ["linmap", "--layer", "0", "--unit=-1", "--points", "-", "--readout", "1,1,0,0;0,0,1,1"],
    ["identify", "--layer", "0", "--unit", "4", "--x1", "0.7,0.2", "--x2=-0.9,0.2"],
    ["identify", "--layer", "0", "--unit", "2", "--x1", "0.7,0.2", "--x2=-0.9,0.2",
     "--readout", "1,1,0,0;0,0,1,1"],
], ids=["layer", "unit", "readout-row", "identify-unit", "identify-readout-row"])
def test_index_out_of_range_is_an_input_error(abs_path, cmd, capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("0.5,0.5\n-0.5,0.5\n"))
    assert main([cmd[0], abs_path] + cmd[1:]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "out of range" in err


@pytest.mark.parametrize("cmd, flag, count", [
    (["identify", "--layer", "0", "--unit", "0", "--x1=0.7,0.2,0.1", "--x2=-0.9,0.2"],
     "--x1", 3),
    (["identify", "--layer", "0", "--unit", "0", "--x1=0.7,0.2", "--x2=-0.9"], "--x2", 1),
    (["linmap", "--layer", "0", "--unit", "0", "--points", "-"], "--points", 3),
], ids=["identify-x1", "identify-x2", "linmap-points"])
def test_point_of_the_wrong_dimension_is_an_input_error(abs_path, cmd, flag, count,
                                                        capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("0.5,0.5,0.1\n-0.5,0.5,0.1\n"))
    assert main([cmd[0], abs_path] + cmd[1:] + ["--readout", "1,1,0,0;0,0,1,1"]) == 2
    assert capsys.readouterr().err == (
        f"error: {flag} has {count} coordinates, the network has 2 inputs\n")


@pytest.mark.parametrize("readout, message", [
    (["--readout", "1,1,0"], "--readout has a row of 3 columns, "
                             "the network's last layer has 4 units"),
    (["--readout", "1,1,0,0;0,0,1"], "--readout has a row of 3 columns, "
                                     "the network's last layer has 4 units"),
    (["--readout", "1,1,0,0;0,0,1,1", "--readout-offset", "1"],
     "--readout-offset has 1 entries, --readout has 2 rows"),
], ids=["columns", "ragged", "offset"])
@pytest.mark.parametrize("cmd", [
    ["identify", "--layer", "0", "--unit", "0", "--x1", "0.7,0.2", "--x2=-0.9,0.2"],
    ["linmap", "--layer", "0", "--unit", "0", "--points", "-"],
], ids=["identify", "linmap"])
def test_readout_of_the_wrong_width_is_an_input_error(abs_path, cmd, readout, message,
                                                      capsys, monkeypatch):
    # the abs witness's last layer has 4 units; identify kept exit 1 for
    # a failed identification, and both printed numpy's matmul error
    monkeypatch.setattr("sys.stdin", io.StringIO("0.5,0.5\n-0.5,0.5\n"))
    assert main([cmd[0], abs_path] + cmd[1:] + readout) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_linmap_of_no_samples_lists_no_pieces(abs_path, capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(""))
    with pytest.warns(UserWarning, match="no data"):
        assert main(["linmap", abs_path, "--layer", "0", "--unit", "0", "--points", "-"]) == 0
    assert capsys.readouterr().out == "[]\n"


def test_identify_rejects_a_malformed_point(abs_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["identify", abs_path, "--layer", "0", "--unit", "0",
              "--x1", "a,b", "--x2=-0.9,0.2"])
    assert exc.value.code == 2
    assert "not a comma-separated float list" in capsys.readouterr().err


def test_readout_offset_rejects_a_malformed_list(abs_path, capsys):
    # parsed by argparse, like --x1: a usage error, not a traceback
    with pytest.raises(SystemExit) as exc:
        main(["linmap", abs_path, "--layer", "0", "--unit", "0", "--points", "-",
              "--readout", "1,1,0,0", "--readout-offset", "a"])
    assert exc.value.code == 2
    assert "not a comma-separated float list" in capsys.readouterr().err


@pytest.mark.parametrize("cmd", [
    ["linmap", "--layer", "7", "--unit", "0", "--points", "-"],
    ["identify", "--layer", "7", "--unit", "0", "--x1", "0.7,0.2", "--x2=-0.9,0.2"],
], ids=["linmap", "identify"])
def test_readout_does_not_hide_a_bad_layer(abs_path, cmd, capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("0.5,0.5\n-0.5,0.5\n"))
    assert main([cmd[0], abs_path] + cmd[1:] + ["--readout", "1,1,0,0;0,0,1,1"]) == 2
    assert capsys.readouterr().err == "error: layer 7 out of range\n"


def test_verify_all_byte_identical(tmp_path, acceptance_seed0):
    # one CLI run against the session's own run of the suite: two
    # independent runs, compared byte for byte
    out = tmp_path / "a.txt"
    assert main(["verify-all", "-o", str(out)]) == 0
    assert out.read_bytes() == format_table(acceptance_seed0).encode()
    text = out.read_text()
    assert text.count("PASS") == 12
    assert text.rstrip().endswith("12/12 criteria passed")
