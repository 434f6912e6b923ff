"""Smoke runs of the scripts under scripts/ and of ``python -m pwlregions``,
each in a fresh interpreter on this checkout's sources."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _python(*args: str) -> subprocess.CompletedProcess:
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          timeout=120, env={**os.environ, "PYTHONPATH": path})


def _run(script: str, *args: str) -> subprocess.CompletedProcess:
    return _python(str(ROOT / "scripts" / script), *args)


def test_witness_gallery_counts_and_draws(tmp_path):
    run = _run("witness_gallery.py", "--out-dir", str(tmp_path), "--seed", "0")
    assert run.returncode == 0, run.stderr
    assert "MISMATCH" not in run.stdout
    assert run.stdout.count("predicted: ok") == 12
    svgs = sorted(tmp_path.glob("*.svg"))
    assert len(svgs) == 7  # the 2-input witnesses
    assert all(p.read_text().startswith("<svg ") for p in svgs)


def test_regions_per_param_table():
    run = _run("regions_per_param_table.py", "--n0", "2", "--width", "4", "--max-depth", "8")
    assert run.returncode == 0, run.stderr
    rows = [line.split() for line in run.stdout.splitlines()[2:]]
    assert [int(r[0]) for r in rows] == list(range(1, 9))
    assert rows[-1][1] == "180224"  # deep count of 8 layers of width 4 on R^2


@pytest.mark.parametrize("sub", ["bounds", "construct", "enumerate", "oracle", "regions2d",
                                 "linmap", "identify", "verify-all"])
def test_module_entry_point_prints_subcommand_help(sub):
    run = _python("-m", "pwlregions", sub, "--help")
    assert run.returncode == 0, run.stderr
    assert run.stdout.startswith(f"usage: pwlregions {sub} ")
