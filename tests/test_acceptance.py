"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line; run pytest with -s to see them inline.
The heavy census runs are shared through module-scoped fixtures.
"""

import cmath
import json
import math
import subprocess
import sys
import time

import pytest

from tripods.analytics import (
    expected_total_density,
    mc_omega_volume,
    reference_constants,
    slice_property_check,
)
from tripods.census import (
    APPENDIX,
    LEMMA,
    CensusConfig,
    census,
    enumerate_tripods,
    nonreduced_census,
    random_lattice_experiment,
)
from tripods.geometry import Tripod
from tripods.lattice import eisenstein_lattice, gaussian_lattice
from tripods.topology import region_count, self_intersections

G = gaussian_lattice()
E = eisenstein_lattice()

GOLDEN_PRIMITIVE_COUNT = 312488
GOLDEN_ERROR = 0.00124129370635984
MAIN_CONSTANT = 15 * math.sqrt(3) / (4 * math.pi ** 3)


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}", flush=True)


@pytest.fixture(scope="module")
def appendix35():
    t0 = time.perf_counter()
    rep = census(CensusConfig(lattice=G, radius=35, mode=APPENDIX, threads=4))
    rep._wall_s = time.perf_counter() - t0
    return rep


@pytest.fixture(scope="module")
def lemma35():
    return census(CensusConfig(lattice=G, radius=35, mode=LEMMA, threads=4))


@pytest.fixture(scope="module")
def eisenstein40():
    return nonreduced_census(E, 40, threads=4)


def test_criterion_1_golden_count(appendix35, lemma35):
    """Appendix-compatible census reproduces the reference count exactly."""
    t0 = time.perf_counter()
    cp = subprocess.run(
        [sys.executable, "-m", "tripods", "census", "--lattice", "gaussian",
         "--radius", "35", "--mode", "appendix", "--threads", "4"],
        capture_output=True, text=True)
    cli_wall = time.perf_counter() - t0
    cli_primitive = json.loads(cp.stdout)["payload"]["counts"]["primitive"]
    detail = (f"appendix primitive={cli_primitive} (cli, wall={cli_wall:.1f}s, 4 threads) "
              f"lemma primitive={lemma35.primitive} "
              f"angle_ties={lemma35.angle_tie_primitive_count} "
              f"sector_boundary={lemma35.sector_boundary_count}")
    ok = cli_primitive == GOLDEN_PRIMITIVE_COUNT and cli_wall < 60
    _report("criterion 1 (golden count 312488)", ok, detail)
    assert cp.returncode == 0
    assert cli_primitive == GOLDEN_PRIMITIVE_COUNT
    assert appendix35.primitive == GOLDEN_PRIMITIVE_COUNT
    # the lemma-canonical filter differs exactly by the tied-angle tripods
    assert (lemma35.primitive - appendix35.primitive
            == lemma35.angle_tie_primitive_count)
    assert cli_wall < 60 and appendix35._wall_s < 60


def test_golden_counts(lemma35, eisenstein40):
    """The golden numbers of the lemma and Eisenstein censuses, exactly."""
    gaussian = (lemma35.all_tripods, lemma35.primitive, lemma35.angle_tie_primitive_count,
                lemma35.sector_boundary_count)
    counts = eisenstein40["counts"]
    eisenstein = (counts["all_tripods"], counts["primitive"], counts["nonreduced_primitive"])
    ok = gaussian == (339984, 314260, 1772, 248) and eisenstein == (768600, 711394, 220604)
    _report("golden counts", ok,
            f"gaussian R=35 lemma (all, primitive, ties, sector boundary) = {gaussian}; "
            f"eisenstein R=40 (all, primitive, nonreduced) = {eisenstein}")
    assert gaussian == (339984, 314260, 1772, 248)
    assert eisenstein == (768600, 711394, 220604)


def test_criterion_2_asymptotic_error(appendix35):
    err35 = abs(appendix35.primitive / 35 ** 4 - MAIN_CONSTANT)
    err10 = abs(census(CensusConfig(lattice=G, radius=10, mode=APPENDIX)).primitive
                / 10 ** 4 - MAIN_CONSTANT)
    err20 = abs(census(CensusConfig(lattice=G, radius=20, mode=APPENDIX)).primitive
                / 20 ** 4 - MAIN_CONSTANT)
    ok = abs(err35 - GOLDEN_ERROR) <= 1e-9 and err35 < err20 < err10
    _report("criterion 2 (asymptotic error)", ok,
            f"err35={err35!r} (target {GOLDEN_ERROR}, diff {abs(err35 - GOLDEN_ERROR):.2e}), "
            f"err20={err20:.6f}, err10={err10:.6f}")
    assert abs(err35 - GOLDEN_ERROR) <= 1e-9
    assert err35 < err10 and err35 < err20


def test_criterion_3_fermat_point_exact():
    cp = subprocess.run(
        [sys.executable, "-m", "tripods", "inspect", "--lattice", "gaussian",
         "--coords", "1,0,0,1"],
        capture_output=True, text=True)
    data = json.loads(cp.stdout)
    fp = data["payload"]["fermat_point"]
    ok = (cp.returncode == 0
          and fp["x"]["rational"] == "1/2" and fp["x"]["root3"] == "-1/6"
          and fp["y"]["rational"] == "1/2" and fp["y"]["root3"] == "-1/6")
    _report("criterion 3 (Fermat point exactness)", ok,
            f"p = ({fp['x']['rational']} + {fp['x']['root3']}*sqrt(3)) * (1+i)")
    assert ok


def test_criterion_4_length_identities():
    worst_sum = 0.0
    worst_vol = 0.0
    total = 0
    for lat in (G, E):
        covol = lat.covolume
        for row in enumerate_tripods(lat, 15):
            t = Tripod.from_coords(lat, *(int(x) for x in row))
            l1, l2, l3 = t.leg_lengths()
            ell = t.length()
            worst_sum = max(worst_sum, abs(l1 + l2 + l3 - ell) / ell)
            vol = math.sqrt(3) / 4 * (ell * ell - (l1 * l1 + l2 * l2 + l3 * l3))
            expected = t.index_n * covol
            worst_vol = max(worst_vol, abs(vol - expected) / expected)
            total += 1
    ok = worst_sum <= 1e-9 and worst_vol <= 1e-9
    _report("criterion 4 (length identities, R<=15)", ok,
            f"{total} tripods, worst leg-sum rel err {worst_sum:.2e}, "
            f"worst volume rel err {worst_vol:.2e}")
    assert ok


def test_criterion_5_topology_oracle():
    t0 = time.perf_counter()
    stats = {}
    for lat, name in ((G, "gaussian"), (E, "eisenstein")):
        quads = enumerate_tripods(lat, 12, include_boundary=True)
        degenerate = 0
        for row in quads:
            t = Tripod.from_coords(lat, *(int(x) for x in row))
            rep = self_intersections(t)
            if rep.degenerate:
                degenerate += 1
                continue
            assert rep.intersections == t.index_n - 1, t.coords
            assert region_count(rep) == t.index_n, t.coords
        stats[name] = (len(quads), degenerate)
    wall = time.perf_counter() - t0
    ok = wall < 300
    _report("criterion 5 (topology oracle, ell^2<=144)", ok,
            f"gaussian {stats['gaussian'][0]} tripods ({stats['gaussian'][1]} degenerate), "
            f"eisenstein {stats['eisenstein'][0]} tripods ({stats['eisenstein'][1]} degenerate), "
            f"wall={wall:.0f}s")
    assert ok


def test_criterion_6_volume_monte_carlo():
    reference = reference_constants()["omega_volume"]
    seeds = list(range(1, 11))
    hits = 0
    for seed in seeds:
        est = mc_omega_volume(1_000_000, seed=seed)
        if abs(est.estimate - reference) <= 3 * est.standard_error:
            hits += 1
    slice_ok = True
    details = []
    for u in (1 + 0j, 0.5 * cmath.exp(1j * math.pi / 4), 0.9 * cmath.exp(1j * math.pi / 2)):
        res = slice_property_check(u, 10_000, seed=101)
        slice_ok = slice_ok and res.passed and not res.counterexamples
        details.append(f"u={u:.3f}: {len(res.counterexamples)} counterexamples")
    ok = hits >= 9 and slice_ok
    _report("criterion 6 (volume Monte Carlo + slices)", ok,
            f"{hits}/10 seeds within 3 SE of {reference:.7f}; " + "; ".join(details))
    assert hits >= 9
    assert slice_ok


def test_criterion_7a_eisenstein_total_density(eisenstein40):
    measured = eisenstein40["all_over_R4"]
    target = math.pi / 12
    rel = abs(measured - target) / target
    ok = rel <= 0.03
    _report("criterion 7a (Eisenstein total vs pi/12)", ok,
            f"all/R^4 = {measured:.6f}, pi/12 = {target:.7f}, rel dev {rel:.1%} "
            f"(volume-based prediction vol(Omega)/covol^2 = "
            f"{expected_total_density(E.covolume):.7f})")
    assert rel <= 0.03, (
        "measured Eisenstein all-tripod density matches vol(Omega)/covol^2 "
        "= sqrt(3)*pi/18, not the quoted pi/12")


def test_criterion_7_supplement_volume_prediction(eisenstein40):
    """The measured total density does match the region-volume prediction."""
    measured = eisenstein40["all_over_R4"]
    predicted = expected_total_density(E.covolume)  # sqrt(3)*pi/18
    rel = abs(measured - predicted) / predicted
    _report("criterion 7 supplement (total vs vol(Omega)/covol^2)", rel <= 0.03,
            f"all/R^4 = {measured:.6f}, sqrt(3)*pi/18 = {predicted:.7f}, rel dev {rel:.2%}")
    assert rel <= 0.03


def test_criterion_7b_nonreduced_density(eisenstein40):
    ratio = eisenstein40["nonreduced_over_R4"]
    ok = ratio >= 0.05
    _report("criterion 7b (Eisenstein nonreduced density)", ok,
            f"nonreduced/R^4 = {ratio:.6f} >= 0.05 "
            f"(asymptotic lower-bound constant 0.0770)")
    assert ok


def test_criterion_8_determinism(appendix35, eisenstein40):
    mismatches = []
    for threads in (1, 8):
        rep = census(CensusConfig(lattice=G, radius=35, mode=APPENDIX, threads=threads))
        if (rep.primitive, rep.all_tripods, rep.index_histogram) != (
                appendix35.primitive, appendix35.all_tripods, appendix35.index_histogram):
            mismatches.append(f"census35 threads={threads}")
    for threads in (1, 8):
        out = nonreduced_census(E, 40, threads=threads)
        if out["counts"] != eisenstein40["counts"]:
            mismatches.append(f"eisenstein40 threads={threads}")
    v1 = mc_omega_volume(1_000_000, seed=7)
    v2 = mc_omega_volume(1_000_000, seed=7)
    if v1.estimate != v2.estimate:
        mismatches.append("volume rerun")
    r1 = random_lattice_experiment(5, 6.0, seed=11)
    r2 = random_lattice_experiment(5, 6.0, seed=11)
    if r1["histogram"] != r2["histogram"]:
        mismatches.append("random-lattice rerun")
    ok = not mismatches
    _report("criterion 8 (determinism)", ok,
            "thread counts {1,4,8} and seeded reruns agree" if ok
            else f"mismatches: {mismatches}")
    assert ok


def test_note_random_lattice_majority_zero():
    """Almost-every-lattice heuristic: most random tau report 0 nonreduced."""
    out = random_lattice_experiment(50, 10.0, seed=2024)
    ok = out["zero_fraction"] > 0.5
    _report("note (random-lattice heuristic)", ok,
            f"zero-nonreduced fraction {out['zero_fraction']:.2f} over 50 samples, "
            f"histogram {out['histogram']}")
    assert ok
