import math
from math import gcd

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tripods.census import (
    APPENDIX,
    LEMMA,
    MAX_EXACT_RADIUS,
    CensusConfig,
    OverflowLimitError,
    _accept_exact,
    _nonreduced_mask,
    _scan,
    census,
    convergence_scan,
    enumerate_tripods,
    lattice_points_in_disk,
    nonreduced_census,
    random_lattice_experiment,
)
from tripods.geometry import InvalidTripodError, Tripod, classify
from tripods.lattice import eisenstein_lattice, gaussian_lattice, general_lattice

G = gaussian_lattice()
E = eisenstein_lattice()


# -- independent scalar reference (pure Python ints, no numpy) ---------------


def _sign3(alpha: int, beta: int) -> int:
    if alpha == 0 and beta == 0:
        return 0
    if alpha >= 0 and beta >= 0:
        return 1
    if alpha <= 0 and beta <= 0:
        return -1
    cmp = alpha * alpha - 3 * beta * beta
    return (1 if alpha > 0 else -1) if cmp > 0 else (1 if beta > 0 else -1)


def _reference_census(lat_mode: str, R: int, mode: str):
    """Direct scalar re-implementation of the counting conditions."""
    pts = []
    if lat_mode == "gaussian":
        for a in range(-R, R + 1):
            for b in range(-R, R + 1):
                if (a, b) != (0, 0) and a * a + b * b <= R * R:
                    pts.append((a, b))
    else:
        bmax = int(2 * R / math.sqrt(3)) + 2
        for a in range(-2 * R - 2, 2 * R + 3):
            for b in range(-bmax, bmax + 1):
                if (a, b) != (0, 0) and a * a + a * b + b * b <= R * R:
                    pts.append((a, b))
    count_all = count_prim = 0
    for (a, b) in pts:
        for (c, d) in pts:
            n = a * d - b * c
            if n <= 0:
                continue
            if lat_mode == "gaussian":
                nz, nw = a * a + b * b, c * c + d * d
                q0 = 2 * (a * c + b * d)
                x = nz + nw - q0 // 2
                t = R * R - x
                if not (t > 0 and t * t > 3 * n * n):
                    continue
                nzw = (a - c) ** 2 + (b - d) ** 2
            else:
                nz = a * a + a * b + b * b
                nw = c * c + c * d + d * d
                q0 = 2 * a * c + 2 * b * d + a * d + b * c
                if not (2 * nz + 2 * nw - q0 + 3 * n < 2 * R * R):
                    continue
                e1, e2 = a - c, b - d
                nzw = e1 * e1 + e1 * e2 + e2 * e2
            if mode == APPENDIX:
                if not (min(nz, nw) > q0 and (q0 >= 0 or q0 * q0 < nz * nw)):
                    continue
            else:
                ok = ((q0 >= 0 or q0 * q0 < nz * nw)
                      and (2 * nz - q0 >= 0 or (2 * nz - q0) ** 2 < nz * nzw)
                      and (2 * nw - q0 >= 0 or (2 * nw - q0) ** 2 < nw * nzw))
                if not ok:
                    continue
                if lat_mode == "gaussian":
                    s_uy = _sign3(b + d, a - c)
                    s_ray = _sign3(2 * d - b, a)
                    s_ux = _sign3(a + c, d - b)
                    if not ((s_uy > 0 and s_ray > 0) or (s_uy == 0 and s_ux > 0)):
                        continue
                else:
                    um, un = -b + c + d, a + b - c
                    if not ((un > 0 and um + un > 0) or (un == 0 and um > 0)):
                        continue
            count_all += 1
            if gcd(gcd(abs(a), abs(b)), gcd(abs(c), abs(d))) == 1:
                count_prim += 1
    return count_all, count_prim


@pytest.mark.parametrize("lat,lat_mode,R,mode", [
    (G, "gaussian", 6, LEMMA),
    (G, "gaussian", 8, LEMMA),
    (G, "gaussian", 6, APPENDIX),
    (E, "eisenstein", 5, LEMMA),
    (E, "eisenstein", 6, LEMMA),
])
def test_census_matches_scalar_reference(lat, lat_mode, R, mode):
    rep = census(CensusConfig(lattice=lat, radius=R, mode=mode))
    ref_all, ref_prim = _reference_census(lat_mode, R, mode)
    assert rep.all_tripods == ref_all
    assert rep.primitive == ref_prim


def test_disk_restriction_loses_no_tuples():
    """Scanning the naive 1.5R coordinate box equals the |z|,|w| <= R scan.

    Every leg endpoint is within distance ell <= R of the origin, so the
    disk prefilter is sound; this verifies it against the wasteful box.
    """
    R = 6
    box = range(-int(1.5 * R), int(1.5 * R) + 1)
    count_all = count_prim = 0
    for a in box:
        for b in box:
            if (a, b) == (0, 0):
                continue
            for c in box:
                for d in box:
                    if (c, d) == (0, 0):
                        continue
                    n = a * d - b * c
                    if n <= 0:
                        continue
                    nz, nw = a * a + b * b, c * c + d * d
                    q0 = 2 * (a * c + b * d)
                    t = R * R - (nz + nw - q0 // 2)
                    if not (t > 0 and t * t > 3 * n * n):
                        continue
                    if not (min(nz, nw) > q0 and (q0 >= 0 or q0 * q0 < nz * nw)):
                        continue
                    count_all += 1
                    if gcd(gcd(abs(a), abs(b)), gcd(abs(c), abs(d))) == 1:
                        count_prim += 1
    rep = census(CensusConfig(lattice=G, radius=R, mode=APPENDIX))
    assert (rep.all_tripods, rep.primitive) == (count_all, count_prim)


def test_radius_one_empty():
    rep = census(CensusConfig(lattice=G, radius=1))
    assert rep.all_tripods == 0 and rep.primitive == 0


def test_minimum_gaussian_length():
    # shortest Gaussian tripod has ell^2 = 2 + sqrt(3) < 4
    rep = census(CensusConfig(lattice=G, radius=2))
    assert rep.primitive > 0
    quads = enumerate_tripods(G, 2)
    best = min(
        float(Tripod.from_coords(G, *map(int, row)).length_sq) for row in quads)
    assert best == pytest.approx(2 + math.sqrt(3), rel=1e-12)


def test_report_count_invariants():
    rep = census(CensusConfig(lattice=E, radius=10, classify_reduced=True))
    assert rep.primitive <= rep.all_tripods
    assert rep.reduced + rep.nonreduced_primitive == rep.primitive
    assert sum(rep.index_histogram.values()) == rep.all_tripods
    assert rep.total_tuples_scanned >= rep.all_tripods


def test_determinism_across_threads():
    reports = [census(CensusConfig(lattice=G, radius=12, classify_reduced=True,
                                   threads=k, emit_samples=64)) for k in (1, 4, 8)]
    base = reports[0]
    for rep in reports[1:]:
        assert rep.all_tripods == base.all_tripods
        assert rep.primitive == base.primitive
        assert rep.reduced == base.reduced
        assert rep.index_histogram == base.index_histogram
        assert rep.angle_tie_count == base.angle_tie_count
        assert rep.samples == base.samples


def test_mode_consistency_ties():
    lem = census(CensusConfig(lattice=G, radius=14, mode=LEMMA))
    app = census(CensusConfig(lattice=G, radius=14, mode=APPENDIX))
    assert lem.all_tripods - app.all_tripods == lem.angle_tie_count
    assert lem.primitive - app.primitive == lem.angle_tie_primitive_count


def test_scaling_filter():
    """Primitive tripods at R reappear doubled (never primitive) at 2R."""
    small = enumerate_tripods(G, 5)
    rep = census(CensusConfig(lattice=G, radius=10, emit_samples=10 ** 9))
    doubled = {(2 * a, 2 * b, 2 * c, 2 * d) for (a, b, c, d) in map(tuple, small)}
    seen = {tuple(s["coords"]) for s in rep.samples}
    prim = {tuple(s["coords"]) for s in rep.samples if s["primitive"]}
    assert doubled <= seen
    assert not (doubled & prim)


def test_reduced_classification_matches_exact():
    """Vectorized reducedness flags agree with exact segment queries."""
    for lat, R in ((E, 6), (G, 6)):
        rep = census(CensusConfig(lattice=lat, radius=R, classify_reduced=True,
                                  emit_samples=10 ** 9))
        exact_nonred = 0
        for s in rep.samples:
            if not s["primitive"]:
                continue
            t = Tripod.from_coords(lat, *s["coords"])
            if not classify(t).reduced:
                exact_nonred += 1
        assert exact_nonred == rep.nonreduced_primitive


@pytest.mark.parametrize("mode, golden20, golden35", [(LEMMA, 592, 2276), (APPENDIX, 100, 504)])
def test_gaussian_reducedness_matches_classify(mode, golden20, golden35):
    """The integer reducedness test agrees with the exact segment queries of
    `classify` on every primitive isosceles tripod with ell < 20, and flags
    no tuple that is not isosceles."""
    R = 20
    nonreduced = 0
    for a, b, c, d, n, *_ in _scan(G, mode, R, lattice_points_in_disk(G, R)):
        prim = np.gcd(gcd(a, b), np.gcd(c, d)) == 1
        mask = _nonreduced_mask(G, a, b, c, d, n, prim)
        sides = (a * a + b * b, c * c + d * d, (a - c) ** 2 + (b - d) ** 2)
        isosceles = prim & ((sides[0] == sides[1]) | (sides[1] == sides[2])
                            | (sides[2] == sides[0]))
        assert not (mask & ~isosceles).any()
        for k in np.flatnonzero(isosceles):
            tripod = Tripod.from_coords(G, a, b, int(c[k]), int(d[k]))
            assert mask[k] == (not classify(tripod).reduced), tripod.coords
        nonreduced += int(np.count_nonzero(mask))
    assert nonreduced == golden20
    counts = nonreduced_census(G, 35, mode=mode)["counts"]
    assert counts["nonreduced_primitive"] == golden35


# rotation by the unit i (Gaussian) or e^{i*pi/3} (Eisenstein), and the
# reflection a + b*tau -> conj, in lattice coordinates
_UNIT = {"gaussian": lambda a, b: (-b, a), "eisenstein": lambda a, b: (-b, a + b)}
_CONJ = {"gaussian": lambda a, b: (a, -b), "eisenstein": lambda a, b: (a + b, -b)}


def _nonreduced_flag(lat, a, b, c, d, wrap=lambda x: x):
    args = (a, b, np.array([c]), np.array([d]), np.array([a * d - b * c]))
    return bool(_nonreduced_mask(lat, *map(wrap, args), np.array([True]))[0])


@settings(max_examples=150, deadline=None)
@given(lat=st.sampled_from([G, E]),
       z=st.tuples(st.integers(-9, 9), st.integers(-9, 9)),
       w=st.none() | st.tuples(st.integers(-9, 9), st.integers(-9, 9)),
       turns=st.integers(0, 5), reflect=st.booleans(), lifts=st.integers(0, 2))
def test_reducedness_invariant_under_lifts_and_units(lat, z, w, turns, reflect, lifts):
    """The nonreduced flag is a property of the torus tripod: it agrees with
    `classify` and survives the cyclic lifts and rotation by a unit.  w = None
    draws an isosceles tripod, w being an image of z under the point group."""
    if w is None:
        w = _CONJ[lat.mode](*z) if reflect else z
        for _ in range(turns):
            w = _UNIT[lat.mode](*w)
    coords = (*z, *w) if z[0] * w[1] - z[1] * w[0] > 0 else (*w, *z)
    for _ in range(lifts):
        a, b, c, d = coords
        coords = (c - a, d - b, -a, -b)
    try:
        tripod = Tripod.from_coords(lat, *coords)
    except InvalidTripodError:
        assume(False)
    assume(gcd(*coords) == 1)
    flag = _nonreduced_flag(lat, *coords)
    assert flag == (not classify(tripod).reduced)
    for lift in tripod.lifts():
        assert _nonreduced_flag(lat, *lift) == flag
    a, b, c, d = coords
    assert _nonreduced_flag(lat, *_UNIT[lat.mode](a, b), *_UNIT[lat.mode](c, d)) == flag


def test_length_predicate_exact_vs_float_random():
    rng = np.random.Generator(np.random.PCG64(7))
    R = 20
    m = 1_000_000
    a, b, c, d = (rng.integers(-R, R + 1, size=m) for _ in range(4))
    n = a * d - b * c
    x = a * a + b * b + c * c + d * d - a * c - b * d
    t = R * R - x
    exact = (n > 0) & (t > 0) & (t * t > 3 * n * n)
    lsq = x + n * math.sqrt(3.0)
    keep = (n > 0) & (np.abs(lsq - R * R) > 1e-6)
    assert np.array_equal(exact[keep], (lsq < R * R)[keep])


def test_overflow_guard():
    with pytest.raises(OverflowLimitError):
        CensusConfig(lattice=G, radius=20001)


def test_appendix_requires_gaussian():
    with pytest.raises(ValueError):
        CensusConfig(lattice=E, radius=5, mode=APPENDIX)


def test_non_integer_radius_rejected_on_exact_lattice():
    with pytest.raises(ValueError):
        CensusConfig(lattice=G, radius=5.5)


def test_enumerate_tripods_validates_radius_like_census():
    with pytest.raises(ValueError, match="integer radius"):
        enumerate_tripods(G, 7.9)
    with pytest.raises(OverflowLimitError):
        enumerate_tripods(E, MAX_EXACT_RADIUS + 1)
    assert np.array_equal(enumerate_tripods(G, 7.0), enumerate_tripods(G, 7))


def test_general_tau_census_heuristic():
    lat = general_lattice(0.3, 1.1)
    rep = census(CensusConfig(lattice=lat, radius=5.0, classify_reduced=True))
    assert rep.heuristic
    assert rep.primitive <= rep.all_tripods
    assert rep.reduced + rep.nonreduced_primitive == rep.primitive


@pytest.mark.parametrize("radius", [7, 10])
@pytest.mark.parametrize("tau, exact", [((0.0, 1.0), G), ((0.5, math.sqrt(3) / 2), E)],
                         ids=["gaussian", "eisenstein"])
def test_general_tau_at_preset_point_matches_exact_counts(tau, exact, radius):
    # the float path resolves near-boundary values as exact ties, so a float
    # tau equal to a preset lattice reproduces its exact counts
    rep_f = census(CensusConfig(lattice=general_lattice(*tau), radius=float(radius)))
    rep_e = census(CensusConfig(lattice=exact, radius=radius))
    assert (rep_f.all_tripods, rep_f.primitive) == (rep_e.all_tripods, rep_e.primitive)
    assert rep_f.heuristic


def test_convergence_scan_errors_and_rows():
    rows = convergence_scan(G, [4, 8], mode=APPENDIX)
    assert rows[0]["R"] == 4 and rows[1]["R"] == 8
    assert rows[1]["error"] < rows[0]["error"]
    with pytest.raises(ValueError):
        convergence_scan(G, [8, 4])


def test_nonreduced_census_requires_exact():
    with pytest.raises(ValueError):
        nonreduced_census(general_lattice(0.3, 1.1), 5)


def test_nonreduced_census_eisenstein_constants():
    out = nonreduced_census(E, 10)
    consts = out["constants"]
    assert consts["nonreduced_bound"] == pytest.approx(0.0770, abs=5e-4)
    assert consts["c1"] == pytest.approx(0.294, abs=5e-4)
    assert consts["c2"] == pytest.approx(0.924, abs=5e-4)
    assert out["counts"]["reduced"] + out["counts"]["nonreduced_primitive"] == \
        out["counts"]["primitive"]


def test_gaussian_nonreduced_exist():
    out = nonreduced_census(G, 20)
    counts = out["counts"]
    assert counts["nonreduced_primitive"] > 0
    assert counts["reduced"] + counts["nonreduced_primitive"] == counts["primitive"]


def test_general_tau_at_hexagonal_point_has_nonreduced():
    # tau numerically equal to e^{i*pi/3}: the heuristic classifier must see
    # the abundant nonreduced tripods of the triangular lattice
    lat = general_lattice(0.5, math.sqrt(3) / 2)
    rep = census(CensusConfig(lattice=lat, radius=8.0, classify_reduced=True))
    assert rep.nonreduced_primitive > 0
    assert rep.heuristic


def test_random_lattice_experiment_deterministic():
    a = random_lattice_experiment(4, 4.0, seed=11)
    b = random_lattice_experiment(4, 4.0, seed=11)
    assert a["histogram"] == b["histogram"]
    assert a["heuristic"]


def test_disk_enumeration_counts():
    pts = lattice_points_in_disk(G, 10)
    direct = sum(1 for a in range(-10, 11) for b in range(-10, 11)
                 if 0 < a * a + b * b <= 100)
    assert len(pts) == direct


@pytest.mark.parametrize("lat", [G, E, general_lattice(0.3, 0.9)],
                         ids=["gaussian", "eisenstein", "general"])
@pytest.mark.parametrize("basis", [((1, 0), (0, 1)), ((2, 1), (-1, 3)), ((1, 0), (0, 7)),
                                   ((3, 0), (1, 2)), ((0, 2), (5, 1))])
def test_disk_with_sublattice_basis(lat, basis):
    """The disk of a sublattice holds the full disk's points that lie in it,
    in lexicographic order of their coefficients (m, n)."""
    (a1, b1), (a2, b2) = basis
    det = a1 * b2 - a2 * b1
    for radius in (1, 6, 9.5):
        full = lattice_points_in_disk(lat, radius)
        m = full[:, 0] * b2 - full[:, 1] * a2
        n = full[:, 1] * a1 - full[:, 0] * b1
        inside = (m % det == 0) & (n % det == 0)
        order = np.lexsort((n[inside] // det, m[inside] // det))
        assert np.array_equal(lattice_points_in_disk(lat, radius, basis),
                              full[inside][order])


# -- the int64 bound of the exact predicates, checked -------------------------


def _extreme_points(lat, R):
    """Lattice points near |z| = R, 0.55 R and 0.3 R in 48 directions."""
    pts = set()
    for k in range(48):
        theta = math.radians(15 * (k // 2) + 0.5 * (k % 2))
        for rho in (R, 0.55 * R, 0.3 * R):
            x, y = rho * math.cos(theta), rho * math.sin(theta)
            b = round(y / lat.tau_t)
            a = round(x - b * lat.tau_s)
            while lat._norm(a, b) > R * R:
                a -= (a > 0) - (a < 0)
                b -= (b > 0) - (b < 0)
            pts.add((a, b))
    return sorted(pts)


def _predicates_on(lat, mode, include_boundary, R, pts, wrap):
    """_accept_exact and _nonreduced_mask over all oriented pairs of `pts`."""
    out = []
    ws = np.array(pts, dtype=np.int64)
    for a, b in pts:
        pos = a * ws[:, 1] - b * ws[:, 0] > 0
        c = wrap(ws[pos, 0])
        d = wrap(ws[pos, 1])
        za, zb, zr = wrap(a), wrap(b), wrap(R)
        accept, n, tie, boundary = _accept_exact(lat, mode, zr, za, zb, c, d, include_boundary)
        prim = np.array([gcd(gcd(a, b), gcd(int(x), int(y))) == 1
                         for x, y in zip(c[accept], d[accept])], dtype=bool)
        nonred = _nonreduced_mask(lat, za, zb, c[accept], d[accept], n[accept], prim)
        out.append((accept.astype(bool).tolist(), [int(x) for x in n],
                    tie.astype(bool).tolist(), boundary.astype(bool).tolist(),
                    nonred.astype(bool).tolist()))
    return out


@pytest.mark.parametrize("lat, mode, include_boundary", [
    (G, LEMMA, False), (G, APPENDIX, False), (G, LEMMA, True),
    (E, LEMMA, False), (E, APPENDIX, False), (E, LEMMA, True),
], ids=["gaussian-lemma", "gaussian-appendix", "gaussian-boundary",
        "eisenstein-lemma", "eisenstein-appendix", "eisenstein-boundary"])
def test_exact_predicates_int64_safe_at_max_radius(lat, mode, include_boundary, tracked):
    """At MAX_EXACT_RADIUS the int64 predicates agree with unbounded ints, and
    no intermediate of the unbounded run reaches 2^63."""
    R = MAX_EXACT_RADIUS
    # (1, 1, -2, 3) has ell^2 = 16 on the Eisenstein lattice; scaled by R/4
    # it lies exactly on the length bound
    on_bound = [(R // 4, R // 4), (-R // 2, 3 * R // 4)]
    pts = sorted(set(_extreme_points(lat, R) + on_bound))

    exact = _predicates_on(lat, mode, include_boundary, R, pts, tracked.wrap)
    family = []
    if lat is G:
        # z = (p, q), w = (q, p) with |z| just under R: isosceles at the
        # origin, and z + w has the large content p + q, so the 0-leg holds a
        # lattice point; these tuples are longer than R, hence not in `pts`
        for q in range(R // 2, R // 2 + 40):
            p = math.isqrt(R * R - q * q)
            if gcd(p, q) == 1:
                family.append((p, q, q, p))
        exact.append([_nonreduced_flag(lat, *t, wrap=tracked.wrap) for t in family])
        # the reducedness products exceed the 16 R^4 of the other predicates
        assert tracked.peak > 16 * R ** 4
    peak = tracked.peak
    fast = _predicates_on(lat, mode, include_boundary, R, pts, lambda x: x)
    if family:
        fast.append([_nonreduced_flag(lat, *t) for t in family])
        assert any(exact[-1]), "no isosceles tuple is flagged nonreduced"
    assert fast == exact
    assert any(any(row[0]) for row in exact), "no row is accepted"
    assert R ** 4 < peak < 2 ** 63
    if lat is E and mode == LEMMA:
        (a, b), (c, d) = on_bound
        accept = _accept_exact(lat, mode, R, a, b, np.array([c]), np.array([d]), include_boundary)[0]
        assert accept.tolist() == [include_boundary]
