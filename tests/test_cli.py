"""CLI surface: subcommand output, piping, exit codes, determinism."""

import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pwlregions
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


@pytest.mark.parametrize("number", ["1" + "0" * 400, "1e400", "NaN", "1" * 5001],
                         ids=["10**400", "1e400", "nan", "5001-digits"])
def test_a_number_a_float_cannot_hold_is_a_bad_network_file(tmp_path, number, capsys):
    # an integer beyond the float range used to exit 1 with an OverflowError,
    # and one beyond int's 4300-digit limit to print that limit's ValueError
    bad = tmp_path / "bad.json"
    bad.write_text('{"input_dim": 1, "layers": [{"activation": "rectifier", '
                   f'"width": 1, "weights": [[{number}]], "bias": [0]}}]}}')
    assert main(["enumerate", str(bad)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("bad network file: layer 0: weights row 0: "
                            "entry 0 is not a finite float\n")


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


def test_oracle_refuses_a_grid_beyond_its_limit(abs_path, capsys):
    # the default box of halfwidth 1e3 at step 1e-3 asks for 4e12 points
    assert main(["oracle", abs_path, "--step", "1e-3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: grid of 4000000000000 points exceeds the "
                                   "oracle's limit of 100000000 points")


def test_box_with_an_empty_interval_is_a_usage_error(abs_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["enumerate", abs_path, "--box", "1,0"])
    assert exc.value.code == 2
    assert "argument --box: bad interval '1,0' in box spec" in capsys.readouterr().err


def test_box_with_too_many_intervals_is_an_input_error(abs_path, capsys):
    assert main(["enumerate", abs_path, "--box", "0,1;0,1;0,1"]) == 2
    assert capsys.readouterr().err == "error: box spec has 3 intervals for 2 inputs\n"


def test_identify_fails_on_a_constant_unit(tmp_path, capsys):
    # unit 0 is the constant 1; unit 1 (relu x) puts the points in two regions
    net = tmp_path / "const.json"
    save_network(Network(2, (Layer([[0.0, 0.0], [1.0, 0.0]], [1.0, 0.0]),)), str(net))
    assert main(["identify", str(net), "--layer", "0", "--unit", "0",
                 "--x1", "0.5,0", "--x2=-0.5,0"]) == 1
    assert capsys.readouterr().err == (
        "identification failed: value gradient vanishes at the second point\n")


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


@pytest.mark.parametrize("x1, x2, code, err", [
    ("nan,0.2", "-0.9,0.2", 2, "error: --x1 is not finite: nan,0.2\n"),
    ("0.7,0.2", "-0.9,inf", 2, "error: --x2 is not finite: -0.9,inf\n"),
    # unit 0 (relu x) is inactive at x2: a failed probe, not an input error
    ("0.7,0.2", "-0.9,0.2", 1, "identification failed: "
                               "unit must be active (positive value) at both points\n"),
], ids=["x1-nan", "x2-inf", "inactive"])
def test_identify_tells_a_bad_point_from_a_failed_probe(abs_path, x1, x2, code, err, capsys):
    # a non-finite point used to exit 1, as a failed probe
    assert main(["identify", abs_path, "--layer", "0", "--unit", "0",
                 f"--x1={x1}", f"--x2={x2}"]) == code
    assert capsys.readouterr().err == err


@pytest.mark.parametrize("value", ["nan", "-1", "inf", "1e-8x"])
@pytest.mark.parametrize("cmd, flag", [
    (["linmap", "--layer", "0", "--unit", "0", "--points", "-"], "--tol"),
    (["identify", "--layer", "0", "--unit", "0", "--x1", "0.7,0.2", "--x2=-0.9,0.2"],
     "--target-tol"),
], ids=["linmap", "identify"])
def test_a_bad_tolerance_is_a_usage_error(abs_path, cmd, flag, value, capsys, monkeypatch):
    # --target-tol=-1 used to fail the probe ("adjustment landed 0.000e+00
    # from the target value", exit 1), and --tol nan merged every piece
    monkeypatch.setattr("sys.stdin", io.StringIO("0.5,0.5\n-0.5,0.5\n"))
    with pytest.raises(SystemExit) as exc:
        main([cmd[0], abs_path] + cmd[1:] + ["--readout", "1,1,0,0;0,0,1,1",
                                             f"{flag}={value}"])
    assert exc.value.code == 2
    assert f"argument {flag}: not a finite number >= 0: '{value}'" in capsys.readouterr().err


def test_identify_accepts_a_zero_target_tolerance(abs_path, capsys):
    assert main(["identify", abs_path, "--layer", "0", "--unit", "0", "--x1", "0.7,0.2",
                 "--x2=-0.9,0.2", "--readout", "1,1,0,0;0,0,1,1", "--target-tol", "0"]) == 0
    assert json.loads(capsys.readouterr().out)["point"] == [-0.7, 0.2]


def test_linmap_of_no_samples_still_checks_the_layer(abs_path, capsys, monkeypatch):
    # with no samples to check it against, --layer 7 used to exit 0
    monkeypatch.setattr("sys.stdin", io.StringIO(""))
    with pytest.warns(UserWarning, match="no data"):
        assert main(["linmap", abs_path, "--layer", "7", "--unit", "0", "--points", "-"]) == 2
    assert capsys.readouterr().err == "error: layer 7 out of range\n"


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


@pytest.mark.parametrize("cmd, flag", [
    (["identify", "ABS", "--layer", "0", "--unit", "0", "--x1", "0.7,,0.2", "--x2=-0.9,0.2",
      "--readout", "1,1,0,0;0,0,1,1"], "--x1"),
    (["bounds", "--n0", "2", "--widths", "4,,4"], "--widths"),
    (["identify", "ABS", "--layer", "0", "--unit", "0", "--x1", "0.7,0.2", "--x2=-0.9,0.2",
      "--readout", "1,1,0,0;0,0,1,1", "--readout-offset", "1,,"], "--readout-offset"),
    (["identify", "ABS", "--layer", "0", "--unit", "0", "--x1", "0.7,0.2", "--x2=-0.9,0.2",
      "--readout", "1,1,,0;0,0,1,1"], "--readout"),
    (["enumerate", "ABS", "--box", "0,1;"], "--box"),
], ids=["x1", "widths", "readout-offset", "readout", "box"])
def test_an_empty_list_item_is_a_usage_error(abs_path, cmd, flag, capsys):
    # every list flag goes through one parser; an empty item used to be
    # skipped (--x1, --widths, --readout-offset) or fail as a bare ValueError
    with pytest.raises(SystemExit) as exc:
        main([abs_path if a == "ABS" else a for a in cmd])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}: not a comma-separated " in err


def test_cap_zero_stops_at_the_first_cell(abs_path, capsys):
    assert main(["enumerate", abs_path, "--cap", "0", "--format", "text"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("region cap exceeded: 1 regions alive at cap 0 at ")


def test_negative_cap_is_a_usage_error(abs_path, capsys):
    assert main(["enumerate", abs_path, "--cap=-3", "--format", "text"]) == 2
    assert capsys.readouterr().err == "error: --cap must be >= 0\n"


def test_oracle_step_sizes_the_grid_by_the_widest_side(tmp_path, capsys):
    # relu(y - 1) and relu(y - 2): 3 regions in y; a grid sized by the x
    # side alone makes the y cells 5 wide and sees 2 of them
    net = tmp_path / "steps.json"
    save_network(Network(2, (Layer([[0, 1], [0, 1]], [-1, -2]),)), str(net))
    for flags in (["--step", "0.5"], ["--resolution", "40"]):
        assert main(["oracle", str(net), "--box=-1,1;-10,10", *flags]) == 0
        assert capsys.readouterr().out == "3\n"
    assert main(["enumerate", str(net), "--box=-1,1;-10,10", "--format", "text"]) == 0
    assert capsys.readouterr().out == "regions: 3\n"


def test_verify_all_byte_identical(tmp_path, acceptance_seed0):
    # one CLI run against the session's own run of the suite: two
    # independent runs, compared byte for byte
    out = tmp_path / "a.txt"
    assert main(["verify-all", "-o", str(out)]) == 0
    assert out.read_bytes() == format_table(acceptance_seed0).encode()
    text = out.read_text()
    assert text.count("PASS") == 12
    assert text.rstrip().endswith("12/12 criteria passed")


def test_verify_all_loads_no_test_only_module(tmp_path):
    """Nothing but numpy is needed at run time: a whole verify-all run in a
    fresh interpreter loads no module of the test extras."""
    src = Path(pwlregions.__file__).parents[1]
    code = ("import sys, pwlregions.cli; "
            "code = pwlregions.cli.main(['verify-all', '--seed', '0', '-o', sys.argv[1]]); "
            "print(code, sorted({m.split('.')[0] for m in sys.modules} "
            "& {'scipy', 'hypothesis', 'pytest'}))")
    out = subprocess.run([sys.executable, "-c", code, str(tmp_path / "table.txt")],
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(src)}, check=True).stdout
    assert out == "0 []\n"


# --------------------------------------------------------------------------
# byte pins: SHA-256 of stdout, stderr, exit code and written files


def _transcript(argv, capsys, files=()) -> bytes:
    code = main(argv)
    captured = capsys.readouterr()
    parts = [" ".join(argv), str(code), captured.out, captured.err]
    parts += [f.read_text() if f.exists() else "<absent>" for f in files]
    return "\x00".join(parts).encode() + b"\x01"


BOUNDS_WIDTHS = ("1", "2", "3", "4,4,4", "5,3", "2,2,2", "6,7", "3,0")


def test_bounds_output_is_pinned(capsys):
    # n0 1-4, 8 width lists, rectifier and maxout ranks 2 and 3, json and text
    digest = hashlib.sha256()
    for n0 in range(1, 5):
        for widths in BOUNDS_WIDTHS:
            for rank in ([], ["--maxout-rank", "2"], ["--maxout-rank", "3"]):
                for fmt in ("json", "text"):
                    digest.update(_transcript(["bounds", "--n0", str(n0), "--widths", widths,
                                               *rank, "--format", fmt], capsys))
    assert digest.hexdigest() == (
        "534cac1f4d223d77fa5a37b104e68cb5021a45639f88702e03680586efb123b5")


CONSTRUCT_PINS = {
    "sawtooth": (
        ["--kind", "sawtooth"],
        "fa6e85b56fa7fb9bae43b36d6870f25e43d8664d257c0d5fd336c6f9b33c6347"),
    "sawtooth-theta": (
        ["--kind", "sawtooth", "--theta", "0.5"],
        "1b979a929cce069884684e533a75e146179cef406a0419f5b628e45fa83b64ee"),
    "folding": (
        ["--kind", "folding", "--n0", "2", "--widths", "4,4"],
        "b43f371f70327f681f2198ddfaaec9e28e5dd26b39257b27953a7272279f7fdd"),
    "folding-unrefined": (
        ["--kind", "folding", "--n0", "2", "--widths", "5,3", "--unrefined"],
        "47715e69152e683ee27643b8f4a4c96cd4a31f40fbd8b065d9486175a6af9b4d"),
    "abs": (
        ["--kind", "abs"],
        "7e3e1b7893b5c60a0f7de78537a3725c25c37c724c3b4e2907a2726eec188686"),
    "parallel": (
        ["--kind", "parallel"],
        "8d95ad45cb352f71e4a461793baef685420f7a9a874f3aef6fe1d1be8e5c415e"),
    "rank2-rectifier": (
        ["--kind", "rank2-rectifier", "--n0", "2"],
        "bd0545de0e202f45b0e7516a125baeb27435ec16185e4100bc1381bbf2d2de80"),
    "cones": (
        ["--kind", "cones", "--k", "3"],
        "f25cf31816c42985fe5f6e3afab80154560c59c55f2e9c5691a8757add7f885b"),
    "shi": (
        ["--kind", "shi", "--n", "3"],
        "1c35bb9519a294c6e568b6811bd05a52cad9d79d8b691b1fd3155d2abcf6d58f"),
    "catalan": (
        ["--kind", "catalan", "--n", "3"],
        "4380df08125e3e202676a2a044e1794438fd5afd5b33ddc3fc000fd4b3846c03"),
    "cones-failing": (
        ["--kind", "cones", "--n0", "3", "--k", "3"],
        "6da0dad9745c883a09b8fed13dff621817de02294df1f3ae4c7c4b3a5f67c5cf"),
}


@pytest.mark.parametrize("variant", CONSTRUCT_PINS)
def test_construct_output_is_pinned(variant, tmp_path, capsys):
    args, pin = CONSTRUCT_PINS[variant]
    net, wit = tmp_path / "net.json", tmp_path / "wit.json"
    record = _transcript(["construct", *args, "-o", str(net), "--witness-out", str(wit)],
                         capsys, (net, wit))
    assert hashlib.sha256(record.replace(str(tmp_path).encode(), b"")).hexdigest() == pin
