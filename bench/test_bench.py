"""Tests of the benchmark itself: its reference counter, its checks and its runs.

    python3 -m pytest -q bench

Every check must accept a real report of the program and reject the same
report with one value perturbed.  The smoke runs execute every workload at
toy sizes, traced and untraced.
"""

from __future__ import annotations

import copy
import json
import math
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import reference
import run

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
PKG = run.load_package()
RUNNER = run.Runner(PKG)


def cli(*argv: str) -> dict:
    env, _wall = RUNNER.call(list(argv), "test")
    return env


def rejects(check, env, mutate, *args) -> bool:
    bad = copy.deepcopy(env)
    mutate(bad)
    return bool(check(bad, *args))


# -- reference counter -------------------------------------------------------


@pytest.mark.parametrize("lattice", reference.LATTICES)
def test_reference_matches_program_at_small_radius(lattice):
    expected = reference.count(lattice, 7)
    modes = ("lemma", "appendix") if lattice == "gaussian" else ("lemma",)
    for mode in modes:
        env = cli("census", "--lattice", lattice, "--radius", "7", "--mode", mode)
        assert checks.matches_reference(env, expected[mode]) == []


def test_reference_modes_differ_by_ties():
    for lattice in reference.LATTICES:
        got = reference.count(lattice, 9)
        lem, app = got["lemma"], got["appendix"]
        assert lem["all_tripods"] - app["all_tripods"] == lem["angle_tie"]
        assert lem["primitive"] - app["primitive"] == lem["angle_tie_primitive"]
        assert sum(lem["index_histogram"].values()) == lem["all_tripods"]


def test_reference_enumeration_is_criterion_5_set():
    from tripods.census import enumerate_tripods
    from tripods.lattice import parse_lattice
    total = 0
    for lattice in reference.LATTICES:
        ours = sorted(reference.enumerate_lemma(lattice, 12, include_boundary=True))
        theirs = sorted(tuple(int(x) for x in row)
                        for row in enumerate_tripods(parse_lattice(lattice), 12, include_boundary=True))
        assert ours == theirs
        total += len(ours)
    assert total == 10394


def test_reference_sign3():
    assert reference.sign3(0, 0) == 0
    assert reference.sign3(2, -1) == 1       # 2 - sqrt(3)
    assert reference.sign3(-2, 1) == -1
    assert reference.sign3(1, -1) == -1      # 1 - sqrt(3)
    assert reference.sign3(-7, 4) == -1      # 4*sqrt(3) = 6.93 < 7


# -- checks: each accepts the real report and rejects a perturbed one ---------


def test_census_report_check():
    env = cli("census", "--lattice", "gaussian", "--radius", "20", "--reduced")
    assert checks.census_report(env, "gaussian", 20, "lemma", True) == []

    def off_by_one(e):
        e["payload"]["counts"]["all_tripods"] += 1

    def reduced_off(e):
        e["payload"]["counts"]["reduced"] += 1

    def bucket_off(e):
        e["payload"]["index_histogram"]["1"] += 1

    def heuristic(e):
        e["payload"]["heuristic"] = True

    def density(e):
        e["payload"]["counts"]["all_tripods"] = int(e["payload"]["counts"]["all_tripods"] * 1.05)
        e["payload"]["index_histogram"] = {"1": e["payload"]["counts"]["all_tripods"]}

    for mutate in (off_by_one, reduced_off, bucket_off, heuristic, density):
        assert rejects(checks.census_report, env, mutate, "gaussian", 20, "lemma", True)


def test_float_census_check():
    env = cli("census", "--lattice", "tau=0.3,0.9", "--radius", "10", "--reduced")
    assert checks.census_report(env, "tau=0.3,0.9", 10, "lemma", True) == []

    def not_heuristic(e):
        e["payload"]["heuristic"] = False

    def nonreduced_off(e):
        e["payload"]["counts"]["nonreduced_primitive"] += 1

    for mutate in (not_heuristic, nonreduced_off):
        assert rejects(checks.census_report, env, mutate, "tau=0.3,0.9", 10, "lemma", True)


def test_appendix_golden_check():
    env = {"payload": {"counts": {"primitive": 312488}}}
    assert checks.appendix_golden(env) == []
    env["payload"]["counts"]["primitive"] -= 1
    assert checks.appendix_golden(env)


def test_modes_differ_by_ties_check():
    lemma = cli("census", "--lattice", "gaussian", "--radius", "20")
    appendix = cli("census", "--lattice", "gaussian", "--radius", "20", "--mode", "appendix")
    assert checks.modes_differ_by_ties(lemma, appendix) == []
    bad = copy.deepcopy(lemma)
    bad["payload"]["ties"]["angle_tie_primitive"] += 1
    assert checks.modes_differ_by_ties(bad, appendix)


def test_matches_reference_check():
    env = cli("census", "--lattice", "eisenstein", "--radius", "8")
    expected = reference.count("eisenstein", 8)["lemma"]
    assert checks.matches_reference(env, expected) == []
    for key in ("all_tripods", "primitive", "angle_tie", "angle_tie_primitive", "sector_boundary"):
        bad = copy.deepcopy(env)
        block = "counts" if key in bad["payload"]["counts"] else "ties"
        bad["payload"][block][key] += 1
        assert checks.matches_reference(bad, expected), key
    bad = copy.deepcopy(env)
    bad["payload"]["index_histogram"]["2"] += 1
    assert checks.matches_reference(bad, expected)


def test_nonreduced_and_threads_checks():
    one = cli("nonreduced", "--lattice", "eisenstein", "--radius", "20", "--threads", "1")
    two = cli("nonreduced", "--lattice", "eisenstein", "--radius", "20", "--threads", "2")
    assert checks.nonreduced_report(one, "eisenstein", 20) == []
    assert checks.threads_agree(one, two) == []

    def nonreduced_off(e):
        e["payload"]["counts"]["nonreduced_primitive"] += 1

    def ratio_off(e):
        e["payload"]["nonreduced_over_R4"] *= 1.01

    for mutate in (nonreduced_off, ratio_off):
        assert rejects(checks.nonreduced_report, one, mutate, "eisenstein", 20)
    assert rejects(checks.threads_agree, one, nonreduced_off, two)


def test_convergence_check(tmp_path):
    plot = tmp_path / "conv.svg"
    env = cli("convergence", "--lattice", "gaussian", "--radii", "10,20,35", "--mode", "appendix",
              "--plot", str(plot))
    svg = plot.read_text()
    assert checks.convergence_report(env, [10, 20, 35], svg) == []
    bad = copy.deepcopy(env)
    bad["payload"]["rows"][2]["primitive"] += 1
    assert checks.convergence_report(bad, [10, 20, 35], svg)
    bad = copy.deepcopy(env)
    bad["payload"]["rows"][1]["error"], bad["payload"]["rows"][2]["error"] = (
        bad["payload"]["rows"][2]["error"], bad["payload"]["rows"][1]["error"])
    assert checks.convergence_report(bad, [10, 20, 35], svg)
    assert checks.convergence_report(env, [10, 20, 35], svg.replace("<circle", "<rect", 1))


@pytest.mark.parametrize("lattice,coords", [("gaussian", (2, 1, 1, 3)),
                                            ("eisenstein", (3, 1, -1, 4))])
def test_inspect_check(lattice, coords):
    env = cli("inspect", "--lattice", lattice, "--coords=" + ",".join(map(str, coords)))
    assert not env["payload"]["immersion"]["degenerate"]
    assert checks.inspect_report(env, lattice, coords) == []

    def intersections(e):
        e["payload"]["immersion"]["intersections"] += 1

    def regions(e):
        e["payload"]["immersion"]["regions"] -= 1

    def index(e):
        e["payload"]["index"] += 1

    def length_sq(e):
        e["payload"]["length_sq"]["rational"] += "1"

    def leg(e):
        e["payload"]["leg_lengths"][0] += 1e-6

    def junction(e):
        e["payload"]["fermat_point"]["x"]["rational"] = "0"

    def primitive(e):
        e["payload"]["flags"]["primitive"] = not e["payload"]["flags"]["primitive"]

    for mutate in (intersections, regions, index, length_sq, leg, junction, primitive):
        assert rejects(checks.inspect_report, env, mutate, lattice, coords), mutate.__name__


def test_volume_check():
    env = cli("volume", "--samples", "100000", "--seed", "7")
    assert checks.volume_report(env, 100000, 7) == []

    def five_sigma(e):
        p = e["payload"]
        p["estimate"] = checks.OMEGA_VOLUME + 5 * p["standard_error"]
        p["hit_fraction"] = p["estimate"] / math.pi ** 2

    def samples(e):
        e["payload"]["samples"] -= 1

    for mutate in (five_sigma, samples):
        assert rejects(checks.volume_report, env, mutate, 100000, 7)


def test_random_lattice_check():
    env = cli("random-lattice", "--samples", "2", "--radius", "6", "--seed", "5")
    assert checks.random_lattice_report(env, 2, 6, 5) == []

    def bucket(e):
        key = next(iter(e["payload"]["histogram"]))
        e["payload"]["histogram"][key] += 1

    def heuristic(e):
        e["payload"]["heuristic"] = False

    for mutate in (bucket, heuristic):
        assert rejects(checks.random_lattice_report, env, mutate, 2, 6, 5)


# -- inputs ------------------------------------------------------------------


def test_inputs_depend_on_seed_only():
    a = run.build_workload("float-mc", 3, True, ROOT / ".bench_out")
    b = run.build_workload("float-mc", 3, True, ROOT / ".bench_out")
    c = run.build_workload("float-mc", 4, True, ROOT / ".bench_out")
    assert [op.argv for op in a.ops] == [op.argv for op in b.ops]
    assert [op.argv for op in a.ops] != [op.argv for op in c.ops]


def test_stratified_sample_and_survey():
    rng = random.Random(1)
    items = list(range(100))
    picked = run.stratified(rng, items, 10)
    assert [p // 10 for p in picked] == list(range(10))
    taus = run.survey_lattices(random.Random(2), 8)
    ts = [float(t.split(",")[1]) for t in taus]
    assert [int((t - 0.5) * 8) for t in ts] == list(range(8))
    assert taus != run.survey_lattices(random.Random(3), 8)
    for tau in taus:   # the report echoes the lattice exactly as passed
        assert PKG["lattice"].parse_lattice(tau).describe() == tau


def test_scaled_times_use_the_calibration_runs_around_them():
    inspect = run.Op("inspect", [], scaled=True)
    survey_t2 = run.Op("survey t2", [])
    cal = [run.Timed(start, wall, None, {}) for start, wall in ((0.0, 0.010), (1.0, 0.030), (2.0, 0.010))]
    rnd = run.Round(walls={
        "calibration": cal,
        "inspect": [run.Timed(0.5, 0.004, inspect, {}), run.Timed(1.5, 0.008, inspect, {})],
        "survey": [run.Timed(1.2, 0.5, survey_t2, {})],
    })
    speed = run.Speed(cal)
    assert speed(rnd.walls["inspect"][0]) == pytest.approx(2.0)     # (10 + 30) / 2 ms over 10 ms
    assert speed(run.Timed(3.0, 0.1, inspect, {})) == pytest.approx(1.0)   # after the last one
    scaled, measured = run.end_to_end([rnd]), run.end_to_end([rnd], scale=False)
    assert scaled["inspect_ms"] == pytest.approx(3.0)       # median of 4/2 and 8/2 ms
    assert measured["inspect_ms"] == pytest.approx(6.0)
    assert scaled["random_lattices_per_s"] == measured["random_lattices_per_s"] == pytest.approx(2.0)


def test_search_interpolates_between_bracketing_radii():
    state = run.SearchState(run.Search("gaussian", False, 10, 1.0, 5))
    assert state.next_radius() == 10
    state.record(10, 0.5)
    r = state.next_radius()
    assert r > 10
    for radius, t in ((11, 0.8), (12, 1.2)):
        state.record(radius, t)
    assert state.bracket() == 11
    # t = 0.5 * (R/10)^p through three points; the fit meets 1.0 s between 11 and 12
    assert 11 < state.result() < 12
    exact = run.SearchState(run.Search("gaussian", False, 10, 1.0, 5))
    for radius in (10, 11, 12):
        exact.record(radius, 0.5 * (radius / 10) ** 4)
    assert exact.result() == pytest.approx(10 * 2 ** 0.25)


# -- whole runs ------------------------------------------------------------------


def _run(cwd: Path, workload: str, trace: int, smoke: bool = True):
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
            "--seconds", "1", "--trace", str(trace)] + (["--smoke"] if smoke else [])
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_smoke_run(workload, trace):
    cp = _run(ROOT, workload, trace)
    assert cp.returncode == 0, cp.stderr[-2000:]
    result = json.loads(cp.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] > 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    assert sorted(result["metrics"]) == sorted(names)
    units = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    for name, metric in result["metrics"].items():
        assert metric["unit"] == units[name]
        assert isinstance(metric["value"], (int, float))


def test_refuses_checkout_without_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    cp = _run(tmp_path, "census-exact", 0, smoke=False)
    assert cp.returncode != 0
    assert '"metrics"' not in cp.stdout
