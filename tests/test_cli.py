import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from tripods.cli import main

BASE = [sys.executable, "-m", "tripods"]


def run(*args, env=None):
    e = os.environ.copy()
    if env:
        e.update(env)
    return subprocess.run(BASE + list(args), capture_output=True, text=True, env=e)


def test_census_small_json():
    cp = run("census", "--lattice", "gaussian", "--radius", "6", "--mode", "appendix")
    assert cp.returncode == 0
    data = json.loads(cp.stdout)
    assert data["command"] == "census"
    assert data["lattice"] == "gaussian"
    assert data["payload"]["mode"] == "appendix"
    assert data["payload"]["counts"]["primitive"] > 0
    assert data["payload"]["counts"]["primitive"] <= data["payload"]["counts"]["all_tripods"]
    assert "seed" not in data


def test_census_radius_one_zero():
    cp = run("census", "--lattice", "gaussian", "--radius", "1")
    data = json.loads(cp.stdout)
    assert data["payload"]["counts"]["primitive"] == 0


def test_census_general_tau_heuristic_flag():
    cp = run("census", "--lattice", "tau=0.3,1.1", "--radius", "5", "--reduced")
    assert cp.returncode == 0
    data = json.loads(cp.stdout)
    assert data["payload"]["heuristic"] is True
    assert data["payload"]["counts"]["reduced"] is not None


def test_inspect_fermat_point_exact():
    cp = run("inspect", "--lattice", "gaussian", "--coords", "1,0,0,1")
    assert cp.returncode == 0
    data = json.loads(cp.stdout)
    fp = data["payload"]["fermat_point"]
    # (3 - sqrt(3))/6 = 1/2 - (1/6) sqrt(3), both coordinates
    assert fp["x"]["rational"] == "1/2" and fp["x"]["root3"] == "-1/6"
    assert fp["y"]["rational"] == "1/2" and fp["y"]["root3"] == "-1/6"
    assert data["payload"]["index"] == 1
    assert data["payload"]["length_sq"]["rational"] == "2"
    assert data["payload"]["length_sq"]["root3"] == "1"
    assert data["payload"]["flags"]["reduced"] is True


def test_inspect_degenerate_index3():
    cp = run("inspect", "--lattice", "gaussian", "--coords", "2,1,1,2")
    assert cp.returncode == 0
    data = json.loads(cp.stdout)
    assert data["payload"]["index"] == 3
    assert data["payload"]["immersion"]["degenerate"] is True
    assert data["payload"]["flags"]["reduced"] is False


def test_inspect_nondegenerate_index5():
    cp = run("inspect", "--lattice", "gaussian", "--coords", "2,1,1,3")
    data = json.loads(cp.stdout)
    assert data["payload"]["index"] == 5
    assert data["payload"]["immersion"]["intersections"] == 4
    assert data["payload"]["immersion"]["regions"] == 5


def test_inspect_invalid_tripod_exit4():
    cp = run("inspect", "--lattice", "gaussian", "--coords", "1,0,1,0")
    assert cp.returncode == 4
    assert "collinear" in cp.stderr


def test_negative_coords_parsed_as_values():
    # a separate value that starts with '-' is read as the value, like the '=' form
    for coords in (["--coords", "-1,2,3,4"], ["--coords=-1,2,3,4"]):
        cp = run("inspect", "--lattice", "gaussian", *coords)
        assert cp.returncode == 4, cp.stderr
        assert "orientation" in cp.stderr
    cp = run("fiber", "--basis", "-1,0,0,1")
    assert cp.returncode == 0, cp.stderr
    assert json.loads(cp.stdout)["payload"]["basis"] == [-1, 0, 0, 1]


def test_usage_error_exit2():
    cp = run("census", "--lattice", "nosuch", "--radius", "5")
    assert cp.returncode == 2
    cp = run("census", "--radius", "5")
    assert cp.returncode == 2


@pytest.mark.parametrize("args", [
    ("census", "--lattice", "gaussian", "--radius", "inf"),
    ("census", "--lattice", "tau=0.3,0.9", "--radius", "inf"),
    ("convergence", "--radii", "5,inf"),
    ("census", "--lattice", "gaussian", "--radius", "5", "--samples", "-3"),
], ids=["inf-gaussian", "inf-tau", "inf-convergence", "negative-samples"])
def test_nonfinite_radius_or_negative_samples_exit2(args):
    cp = run(*args)
    assert cp.returncode == 2, cp.stderr
    assert cp.stderr.startswith("error: ") and "Traceback" not in cp.stderr
    assert cp.stdout == ""


def test_overflow_exit3():
    cp = run("census", "--lattice", "gaussian", "--radius", "20001")
    assert cp.returncode == 3
    assert "overflow" in cp.stderr.lower()


@pytest.mark.parametrize("tau", ["0.3,inf", "inf,1", "nan,1"])
def test_nonfinite_tau_exit2(tau, capsys):
    assert main(["census", "--lattice", f"tau={tau}", "--radius", "5"]) == 2
    out, err = capsys.readouterr()
    assert err.startswith("error: tau must be finite") and out == ""


@pytest.mark.parametrize("args", [
    ("census", "--lattice", "tau=0.3,0.9", "--radius", "1e8"),
    ("inspect", "--lattice", "gaussian", "--coords=0,1,-10000000,2"),
], ids=["census-disk", "translate-disk"])
def test_infeasible_disk_exit3(args, capsys):
    """A disk whose coefficient box would take petabytes is refused before
    anything is allocated."""
    assert main(list(args)) == 3
    out, err = capsys.readouterr()
    assert err.startswith("overflow: ") and "cells" in err and "2.5e+07" in err
    assert out == ""


def test_json_deterministic_except_timestamp():
    a = json.loads(run("census", "--lattice", "gaussian", "--radius", "8").stdout)
    b = json.loads(run("census", "--lattice", "gaussian", "--radius", "8").stdout)
    for d in (a, b):
        d["timestamp"] = None
        d["payload"]["elapsed_ms"] = None
    assert a == b


def test_csv_json_value_consistency(tmp_path: Path):
    jout = json.loads(run("census", "--lattice", "gaussian", "--radius", "10",
                          "--reduced").stdout)
    cp = run("census", "--lattice", "gaussian", "--radius", "10", "--reduced",
             "--format", "csv")
    header, row = cp.stdout.strip().split("\n")
    assert header == "R,total,primitive,reduced,nonreduced,primitive_over_R4,error"
    cells = row.split(",")
    counts = jout["payload"]["counts"]
    assert int(cells[1]) == counts["all_tripods"]
    assert int(cells[2]) == counts["primitive"]
    assert int(cells[3]) == counts["reduced"]
    assert int(cells[4]) == counts["nonreduced_primitive"]
    assert float(cells[5]) == jout["payload"]["normalized_constant"]


def test_out_file(tmp_path: Path):
    target = tmp_path / "report.json"
    cp = run("census", "--lattice", "gaussian", "--radius", "5", "--out", str(target))
    assert cp.returncode == 0 and cp.stdout == ""
    data = json.loads(target.read_text())
    assert data["payload"]["radius"] == 5.0


def test_convergence_with_svg(tmp_path: Path):
    plot = tmp_path / "conv.svg"
    cp = run("convergence", "--lattice", "gaussian", "--radii", "4,8",
             "--mode", "appendix", "--plot", str(plot))
    assert cp.returncode == 0
    data = json.loads(cp.stdout)
    rows = data["payload"]["rows"]
    assert rows[0]["R"] == 4 and rows[1]["R"] == 8
    svg = plot.read_text()
    assert svg.startswith("<svg") and "polyline" in svg and "reference" in svg


def test_volume_command_deterministic():
    a = run("volume", "--samples", "50000", "--seed", "7")
    b = run("volume", "--samples", "50000", "--seed", "7")
    da, db = json.loads(a.stdout), json.loads(b.stdout)
    assert da["seed"] == 7
    assert da["payload"]["estimate"] == db["payload"]["estimate"]
    assert abs(da["payload"]["estimate"] - 0.2267253) < 5 * da["payload"]["standard_error"]


def test_nonreduced_command():
    cp = run("nonreduced", "--lattice", "eisenstein", "--radius", "10")
    data = json.loads(cp.stdout)
    assert data["payload"]["counts"]["nonreduced_primitive"] > 0
    assert data["payload"]["constants"]["nonreduced_bound"] > 0.07


def test_fiber_command():
    cp = run("fiber", "--lattice", "gaussian", "--basis", "1,0,0,1")
    data = json.loads(cp.stdout)
    assert data["payload"]["count"] == 4
    coords = [tuple(m["coords"]) for m in data["payload"]["members"]]
    assert (1, 0, 0, 1) in coords


def test_random_lattice_command():
    cp = run("random-lattice", "--samples", "3", "--radius", "4", "--seed", "5")
    data = json.loads(cp.stdout)
    assert data["payload"]["heuristic"] is True
    assert sum(data["payload"]["histogram"].values()) == 3


def test_census_samples_flag():
    cp = run("census", "--lattice", "gaussian", "--radius", "5", "--samples", "3")
    data = json.loads(cp.stdout)
    samples = data["payload"]["samples"]
    assert len(samples) == 3
    assert set(samples[0]) == {"coords", "index", "primitive"}


def test_threads_env_default():
    cp = run("census", "--lattice", "gaussian", "--radius", "6",
             env={"TRIPOD_THREADS": "3"})
    data = json.loads(cp.stdout)
    assert data["payload"]["threads"] == 3


@pytest.mark.parametrize("value", ["abc", "0", "-3"])
def test_threads_env_invalid_exit2(value):
    cp = run("census", "--lattice", "gaussian", "--radius", "6",
             env={"TRIPOD_THREADS": value})
    assert cp.returncode == 2
    assert cp.stdout == ""
    lines = cp.stderr.strip().splitlines()
    assert len(lines) == 1 and "TRIPOD_THREADS" in lines[0] and repr(value) in lines[0]


def test_threads_flag_overrides_env():
    cp = run("census", "--lattice", "gaussian", "--radius", "6", "--threads", "2",
             env={"TRIPOD_THREADS": "abc"})
    assert cp.returncode == 0
    assert json.loads(cp.stdout)["payload"]["threads"] == 2


def test_threads_flag_zero_exit2():
    cp = run("convergence", "--radii", "4", "--threads", "0")
    assert cp.returncode == 2
    assert "thread count must be positive" in cp.stderr


def test_float_serialization_17_digits():
    cp = run("volume", "--samples", "10000", "--seed", "1")
    # reference = sqrt(3)*pi/24 printed with 17 significant digits
    assert "0.2267249205292772" in cp.stdout


@pytest.mark.parametrize("radius, counts, csv_row", [
    (1, (0, 0, 0, 0), "1,0,0,0,0,0,"),
    (2, (2, 2, 2, 0), "2,2,2,2,0,0.125,"),
], ids=["R=1", "R=2"])
def test_nonreduced_eisenstein_tiny_radii(radius, counts, csv_row, capsys):
    """R = 1 has no Toricelli point with N(u) < R^2; R = 2 only the units."""
    argv = ["nonreduced", "--lattice", "eisenstein", "--radius", str(radius)]
    assert main(argv) == 0
    out, err = capsys.readouterr()
    payload = json.loads(out)["payload"]
    assert tuple(payload["counts"].values()) == counts and err == ""
    assert payload["nonreduced_over_R4"] == 0 and payload["all_over_R4"] == counts[0] / radius ** 4
    assert main(argv + ["--format", "csv"]) == 0
    out, err = capsys.readouterr()
    assert out == "R,total,primitive,reduced,nonreduced,primitive_over_R4,error\n" \
        + csv_row + "\n" and err == ""


@pytest.mark.parametrize("args", [
    ("nonreduced", "--lattice", "eisenstein", "--radius", "2164"),
    ("convergence", "--lattice", "eisenstein", "--radii", "2164"),
], ids=["nonreduced", "convergence"])
def test_closed_form_beyond_disk_guard_exit3(args, capsys):
    """R = 2164 is the first Eisenstein radius whose disk box passes
    MAX_DISK_CELLS; the closed form refuses it before allocating its grid."""
    tracemalloc.start()
    try:
        assert main(list(args)) == 3
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    out, err = capsys.readouterr()
    assert err.startswith("overflow: the disk of radius 2164") and out == ""
    assert peak < 1_000_000
