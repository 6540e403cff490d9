"""Correctness checks on the JSON reports of the `tripods` command.

Every check returns a list of failure messages; an empty list means the
report passed.  Expected values come from closed forms, from the paper's
appendix count, from the independent counter in `reference.py`, or from
properties that hold between reports.  None of them is a copy of an earlier
run's output.
"""

from __future__ import annotations

import math
from fractions import Fraction
from math import gcd

import reference

SQRT3 = math.sqrt(3.0)
# vol(Omega): all-tripod density of a unit-covolume lattice
OMEGA_VOLUME = SQRT3 * math.pi / 24
# primitive density 15*sqrt(3)/(4*pi^3) = vol(Omega) / zeta(4)
MAIN_CONSTANT = 15 * SQRT3 / (4 * math.pi ** 3)
INV_ZETA4 = 90 / math.pi ** 4
COVOLUME = {"gaussian": 1.0, "eisenstein": SQRT3 / 2}
# the paper's appendix value: Gaussian R = 35, appendix mode, primitive
APPENDIX_PRIMITIVE_R35 = 312488

DENSITY_TOL = 0.03          # exact censuses at R >= 20
DENSITY_MIN_RADIUS = 20
FLOAT_DENSITY_TOL = 0.08    # general-tau censuses at R >= 10 sit within ~4%
FLOAT_DENSITY_MIN_RADIUS = 10
NONREDUCED_MIN = 0.05       # Eisenstein nonreduced / R^4 lower bound
LEG_SUM_TOL = 1e-9
MC_SIGMAS = 4


def _rel(x: float, ref: float) -> float:
    return abs(x - ref) / abs(ref)


def _covolume(lattice: str) -> float:
    if lattice.startswith("tau="):
        return float(lattice[4:].split(",")[1])
    return COVOLUME[lattice]


def _flat_counts(payload: dict) -> dict:
    """Count block of a `census` report in the reference counter's keys."""
    return {
        "all_tripods": payload["counts"]["all_tripods"],
        "primitive": payload["counts"]["primitive"],
        "angle_tie": payload["ties"]["angle_tie"],
        "angle_tie_primitive": payload["ties"]["angle_tie_primitive"],
        "sector_boundary": payload["ties"]["sector_boundary"],
        "index_histogram": payload["index_histogram"],
    }


def density(lattice: str, radius: float, all_tripods: int, primitive: int | None,
            tol: float = DENSITY_TOL) -> list[str]:
    """all * covol^2 / R^4 near vol(Omega); primitive/all near 1/zeta(4)."""
    fails = []
    cov2 = _covolume(lattice) ** 2
    d_all = all_tripods * cov2 / radius ** 4
    if _rel(d_all, OMEGA_VOLUME) > tol:
        fails.append(f"{lattice} R={radius}: all*covol^2/R^4 = {d_all:.6f}, "
                     f"not within {tol:.0%} of vol(Omega) = {OMEGA_VOLUME:.6f}")
    if primitive is not None:
        d_prim = primitive * cov2 / radius ** 4
        if _rel(d_prim, MAIN_CONSTANT) > tol:
            fails.append(f"{lattice} R={radius}: primitive*covol^2/R^4 = {d_prim:.6f}, "
                         f"not within {tol:.0%} of {MAIN_CONSTANT:.6f}")
        if _rel(primitive / all_tripods, INV_ZETA4) > tol:
            fails.append(f"{lattice} R={radius}: primitive/all = "
                         f"{primitive / all_tripods:.5f}, not within {tol:.0%} of 90/pi^4")
    return fails


def census_report(env: dict, lattice: str, radius: float, mode: str = "lemma",
                  reduced: bool = False, threads: int = 1) -> list[str]:
    """Internal consistency and density of one `census` report."""
    fails = []
    p = env["payload"]
    c = p["counts"]
    if env["command"] != "census" or env["lattice"] != lattice:
        fails.append(f"envelope names {env['command']!r} on {env['lattice']!r}")
    if (p["radius"], p["mode"], p["classify_reduced"], p["threads"]) != (
            radius, mode, reduced, threads):
        fails.append("report does not echo radius/mode/reduced/threads")
    if sum(p["index_histogram"].values()) != c["all_tripods"]:
        fails.append(f"index histogram sums to {sum(p['index_histogram'].values())}, "
                     f"all_tripods is {c['all_tripods']}")
    if any(int(k) < 1 for k in p["index_histogram"]):
        fails.append("index histogram has a non-positive index")
    if not 0 < c["primitive"] <= c["all_tripods"] <= c["total_tuples_scanned"]:
        fails.append("counts are not ordered 0 < primitive <= all <= scanned")
    t = p["ties"]
    if not 0 <= t["angle_tie_primitive"] <= t["angle_tie"] <= c["all_tripods"]:
        fails.append("tie counts out of order")
    if reduced:
        if c["reduced"] + c["nonreduced_primitive"] != c["primitive"]:
            fails.append(f"reduced {c['reduced']} + nonreduced {c['nonreduced_primitive']} "
                         f"!= primitive {c['primitive']}")
    elif c["reduced"] is not None or c["nonreduced_primitive"] is not None:
        fails.append("reducedness reported without --reduced")
    heuristic = lattice.startswith("tau=")
    if p["heuristic"] is not heuristic:
        fails.append(f"heuristic flag is {p['heuristic']}, expected {heuristic}")
    if _rel(p["normalized_constant"], c["primitive"] / radius ** 4) > 1e-12:
        fails.append("normalized_constant != primitive/R^4")
    if heuristic:
        if radius >= FLOAT_DENSITY_MIN_RADIUS:
            fails += density(lattice, radius, c["all_tripods"], None, FLOAT_DENSITY_TOL)
    elif radius >= DENSITY_MIN_RADIUS:
        fails += density(lattice, radius, c["all_tripods"], c["primitive"])
    return fails


def appendix_golden(env: dict) -> list[str]:
    got = env["payload"]["counts"]["primitive"]
    if got != APPENDIX_PRIMITIVE_R35:
        return [f"Gaussian R=35 appendix primitive is {got}, the paper has {APPENDIX_PRIMITIVE_R35}"]
    return []


def modes_differ_by_ties(lemma_env: dict, appendix_env: dict) -> list[str]:
    """The appendix rule drops exactly the tripods with a tied largest angle."""
    lem, app = lemma_env["payload"], appendix_env["payload"]
    fails = []
    if lem["counts"]["primitive"] - app["counts"]["primitive"] != lem["ties"]["angle_tie_primitive"]:
        fails.append(f"lemma primitive {lem['counts']['primitive']} - appendix primitive "
                     f"{app['counts']['primitive']} != angle_tie_primitive "
                     f"{lem['ties']['angle_tie_primitive']}")
    if lem["counts"]["all_tripods"] - app["counts"]["all_tripods"] != lem["ties"]["angle_tie"]:
        fails.append("lemma all - appendix all != angle_tie")
    return fails


def matches_reference(env: dict, expected: dict) -> list[str]:
    """Counts and index histogram equal the independent counter's."""
    got = _flat_counts(env["payload"])
    return [f"{env['lattice']} R={env['payload']['radius']} {env['payload']['mode']}: "
            f"{key} is {got[key]!r}, reference counter gives {expected[key]!r}"
            for key in expected if got[key] != expected[key]]


def nonreduced_report(env: dict, lattice: str, radius: int) -> list[str]:
    fails = []
    p = env["payload"]
    c = p["counts"]
    if env["command"] != "nonreduced" or env["lattice"] != lattice or p["radius"] != radius:
        fails.append("envelope does not echo command/lattice/radius")
    if c["reduced"] + c["nonreduced_primitive"] != c["primitive"]:
        fails.append(f"reduced + nonreduced != primitive in {c}")
    if not 0 < c["nonreduced_primitive"] < c["primitive"] <= c["all_tripods"]:
        fails.append(f"expected 0 < nonreduced < primitive <= all, got {c}")
    if _rel(p["all_over_R4"], c["all_tripods"] / radius ** 4) > 1e-12:
        fails.append("all_over_R4 != all/R^4")
    if _rel(p["nonreduced_over_R4"], c["nonreduced_primitive"] / radius ** 4) > 1e-12:
        fails.append("nonreduced_over_R4 != nonreduced/R^4")
    if radius >= DENSITY_MIN_RADIUS:
        fails += density(lattice, radius, c["all_tripods"], c["primitive"])
        if lattice == "eisenstein" and p["nonreduced_over_R4"] < NONREDUCED_MIN:
            fails.append(f"Eisenstein nonreduced/R^4 = {p['nonreduced_over_R4']:.4f} "
                         f"< {NONREDUCED_MIN}")
    return fails


def threads_agree(env_a: dict, env_b: dict) -> list[str]:
    """Counts (and index histograms, where reported) do not depend on --threads."""
    pa, pb = env_a["payload"], env_b["payload"]
    keys = ("counts", "ties", "index_histogram")
    if any(pa.get(k) != pb.get(k) for k in keys):
        return ["counts differ between thread counts"]
    return []


def convergence_report(env: dict, radii: list[int], svg_text: str | None) -> list[str]:
    fails = []
    p = env["payload"]
    rows = p["rows"]
    if [r["R"] for r in rows] != list(radii):
        return [f"convergence rows are for radii {[r['R'] for r in rows]}, asked {radii}"]
    if _rel(p["reference_constant"], MAIN_CONSTANT) > 1e-12:
        fails.append("reference constant is not 15*sqrt(3)/(4*pi^3)")
    cov2 = _covolume(env["lattice"]) ** 2
    for r in rows:
        if _rel(r["primitive_over_R4"], r["primitive"] / r["R"] ** 4) > 1e-12:
            fails.append(f"R={r['R']}: primitive_over_R4 != primitive/R^4")
        if abs(r["error"] - abs(r["primitive"] * cov2 / r["R"] ** 4 - MAIN_CONSTANT)) > 1e-12:
            fails.append(f"R={r['R']}: error column does not match its counts")
        if r["R"] >= DENSITY_MIN_RADIUS:
            fails += density(env["lattice"], r["R"], r["total"], r["primitive"])
        if env["lattice"] == "gaussian" and p["mode"] == "appendix" and r["R"] == 35 \
                and r["primitive"] != APPENDIX_PRIMITIVE_R35:
            fails.append(f"convergence row R=35 primitive {r['primitive']} != 312488")
    errors = [r["error"] for r in rows]
    if any(e1 <= e2 for e1, e2 in zip(errors, errors[1:])):
        fails.append(f"convergence errors do not decrease: {errors}")
    if svg_text is not None:
        if not svg_text.lstrip().startswith("<svg") or svg_text.count("<circle") != len(rows):
            fails.append("plot is not an SVG with one marker per radius")
    return fails


def _qn(obj: dict) -> tuple[Fraction, Fraction]:
    return Fraction(obj["rational"]), Fraction(obj["root3"])


def inspect_report(env: dict, lattice: str, coords: tuple[int, int, int, int]) -> list[str]:
    """Geometry and topology of one tripod against independent computations."""
    fails = []
    p = env["payload"]
    a, b, c, d = coords
    n = a * d - b * c
    if tuple(p["coords"]) != coords or env["lattice"] != lattice:
        return [f"{coords}: report is for {p['coords']} on {env['lattice']}"]
    if p["index"] != n:
        fails.append(f"{coords}: index {p['index']} != ad - bc = {n}")
    alpha, beta, den = reference.length_sq(lattice, a, b, c, d)
    lsq = (Fraction(alpha, den), Fraction(beta, den))
    if _qn(p["length_sq"]) != lsq:
        fails.append(f"{coords}: length_sq {p['length_sq']} != {lsq[0]} + {lsq[1]}*sqrt(3)")
    ell = math.sqrt(float(lsq[0]) + float(lsq[1]) * SQRT3)
    if abs(p["length"] - ell) > 1e-12 * ell:
        fails.append(f"{coords}: length {p['length']} != sqrt(ell^2) = {ell}")
    legs = p["leg_lengths"]
    if abs(sum(legs) - p["length"]) > LEG_SUM_TOL * p["length"]:
        fails.append(f"{coords}: leg lengths sum to {sum(legs)!r}, length is {p['length']!r}")
    # the junction point: the legs to 0, z, w have the reported lengths and
    # meet at 2*pi/3, so their unit vectors sum to zero
    px, py = (x + y * SQRT3 for x, y in (_qn(p["fermat_point"]["x"]), _qn(p["fermat_point"]["y"])))
    if lattice == "gaussian":
        verts = ((0.0, 0.0), (a, b), (c, d))
    else:
        verts = ((0.0, 0.0), (a + b / 2, b * SQRT3 / 2), (c + d / 2, d * SQRT3 / 2))
    vecs = [(vx - px, vy - py) for vx, vy in verts]
    norms = [math.hypot(*v) for v in vecs]
    if any(abs(nv - lv) > LEG_SUM_TOL * ell for nv, lv in zip(norms, legs)):
        fails.append(f"{coords}: leg lengths are not the distances from the junction")
    sx = sum(v[0] / nv for v, nv in zip(vecs, norms))
    sy = sum(v[1] / nv for v, nv in zip(vecs, norms))
    if math.hypot(sx, sy) > 1e-9:
        fails.append(f"{coords}: legs do not meet at 2*pi/3")
    if abs(p["volume"] - n * COVOLUME[lattice]) > 1e-9 * max(1.0, n):
        fails.append(f"{coords}: volume {p['volume']} != index * covolume")
    primitive = gcd(gcd(a, b), gcd(c, d)) == 1
    if p["flags"]["primitive"] != primitive:
        fails.append(f"{coords}: primitive flag {p['flags']['primitive']} != (gcd == 1)")
    if not primitive and p["flags"]["reduced"]:
        fails.append(f"{coords}: non-primitive tripod flagged reduced")
    imm = p["immersion"]
    if imm["degenerate"]:
        if imm["regions"] is not None or not imm["degenerate_reason"]:
            fails.append(f"{coords}: degenerate immersion must give a reason and no regions")
    else:
        k = imm["intersections"]
        if k != n - 1:
            fails.append(f"{coords}: {k} self-intersections, index - 1 = {n - 1}")
        if imm["regions"] != n:
            fails.append(f"{coords}: {imm['regions']} regions, index = {n}")
        if imm["cell_counts"] != [k + 2, 2 * k + 3, k + 1]:
            fails.append(f"{coords}: cell counts {imm['cell_counts']} violate Euler characteristic 0")
    return fails


def volume_report(env: dict, samples: int, seed: int) -> list[str]:
    fails = []
    p = env["payload"]
    if (p["samples"], p["seed"], env.get("seed")) != (samples, seed, seed):
        fails.append("volume report does not echo samples/seed")
    if _rel(p["reference"], OMEGA_VOLUME) > 1e-12:
        fails.append("volume reference is not sqrt(3)*pi/24")
    if not p["standard_error"] > 0:
        fails.append("standard error is not positive")
    elif abs(p["estimate"] - OMEGA_VOLUME) > MC_SIGMAS * p["standard_error"]:
        fails.append(f"seed {seed}: estimate {p['estimate']:.6f} is "
                     f"{abs(p['estimate'] - OMEGA_VOLUME) / p['standard_error']:.1f} standard "
                     f"errors from sqrt(3)*pi/24")
    if _rel(p["estimate"], math.pi ** 2 * p["hit_fraction"]) > 1e-12:
        fails.append("estimate != pi^2 * hit_fraction")
    return fails


def random_lattice_report(env: dict, samples: int, radius: float, seed: int) -> list[str]:
    fails = []
    p = env["payload"]
    if (p["samples"], p["radius"], p["seed"]) != (samples, radius, seed):
        fails.append("random-lattice report does not echo samples/radius/seed")
    hist = p["histogram"]
    if sum(hist.values()) != samples:
        fails.append(f"random-lattice histogram sums to {sum(hist.values())}, "
                     f"{samples} lattices were sampled")
    if any(int(k) < 0 for k in hist):
        fails.append("negative nonreduced count in the histogram")
    if p["heuristic"] is not True:
        fails.append("random-lattice report is not flagged heuristic")
    if abs(p["zero_fraction"] - hist.get("0", 0) / samples) > 1e-12:
        fails.append("zero_fraction does not match the histogram")
    return fails
