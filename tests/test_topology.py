import math

import numpy as np
import pytest

from tripods.census import APPENDIX, LEMMA, CensusConfig, census, enumerate_tripods
from tripods.geometry import Tripod, classify
from tripods.lattice import LatticeVector, eisenstein_lattice, gaussian_lattice
from tripods.topology import (
    ImmersionReport,
    degenerate_frequency,
    fiber_tripods,
    region_count,
    self_intersections,
)

G = gaussian_lattice()
E = eisenstein_lattice()


def test_unit_tripod_embedded():
    rep = self_intersections(Tripod.from_coords(G, 1, 0, 0, 1))
    assert rep.intersections == 0
    assert not rep.degenerate
    assert rep.cell_counts == (2, 3, 1)
    assert region_count(rep) == 1


def test_index_one_always_embedded():
    # index-1 tripods span the whole lattice; there are exactly 4 of them on
    # the Gaussian torus and 2 on the Eisenstein torus, all embedded
    for lat, expected in ((G, 4), (E, 2)):
        found = 0
        for row in enumerate_tripods(lat, 5):
            t = Tripod.from_coords(lat, *(int(x) for x in row))
            if t.index_n != 1:
                continue
            rep = self_intersections(t)
            assert not rep.degenerate, t.coords
            assert rep.intersections == 0, t.coords
            found += 1
        assert found == expected


def test_symmetric_index3_tripod_is_degenerate():
    # (2,1,1,2) has the lattice point (1,1) interior to its junction leg
    t = Tripod.from_coords(G, 2, 1, 1, 2)
    assert not classify(t).reduced
    rep = self_intersections(t)
    assert rep.degenerate
    with pytest.raises(ValueError):
        region_count(rep)


def test_scaled_tripod_triple_point_degenerate():
    # legs of a doubled tripod all pass through the image of the original
    # junction point: a genuine triple point
    rep = self_intersections(Tripod.from_coords(G, 2, 0, 0, 2))
    assert rep.degenerate


def test_junction_on_lattice_point_degenerate():
    rep = self_intersections(Tripod.from_coords(E, 1, 1, -1, 2))
    assert rep.degenerate
    assert "junction" in rep.degenerate_reason


def test_nondegenerate_index5():
    t = Tripod.from_coords(E, 2, 1, 1, 3)
    rep = self_intersections(t)
    assert not rep.degenerate
    assert rep.intersections == t.index_n - 1 == 4
    assert region_count(rep) == 5
    assert rep.cell_counts == (6, 11, 5)


def test_oracle_equals_index_formula_small_sweep():
    """Brute-force verification on every tripod with ell^2 <= 49."""
    for lat in (G, E):
        quads = enumerate_tripods(lat, 7, include_boundary=True)
        reports = []
        for row in quads:
            t = Tripod.from_coords(lat, *(int(x) for x in row))
            rep = self_intersections(t)
            reports.append(rep)
            if rep.degenerate:
                continue
            assert rep.intersections == t.index_n - 1, t.coords
            assert region_count(rep) == t.index_n
        assert 0.0 < degenerate_frequency(reports) < 0.5


def test_lift_invariance():
    """All three planar lifts of a torus tripod give the same report."""
    for lat, coords in [(G, (3, 1, 1, 2)), (E, (2, 1, 1, 3)), (G, (2, 1, 1, 3))]:
        t = Tripod.from_coords(lat, *coords)
        base = self_intersections(t)
        for lift in t.lifts()[1:]:
            # re-canonicalize the lift as a positively-oriented pair
            a, b, c, d = lift
            t2 = Tripod.from_coords(lat, a, b, c, d)
            rep = self_intersections(t2)
            assert rep.intersections == base.intersections
            assert rep.degenerate == base.degenerate


def test_large_tripod_with_genuine_triple_points():
    """Pairwise crossing events can coincide: (20,3,4,22) has 8 torus points
    where strands of all three legs meet.  The event count matches the index
    formula (427 = n - 1) but the distinct-point count is lower, so the
    double-point cell structure fails and the report is degenerate."""
    t = Tripod.from_coords(G, 20, 3, 4, 22)
    assert t.index_n == 428
    rep = self_intersections(t)
    assert rep.degenerate
    assert rep.degenerate_reason == "multiple strands through one intersection point"
    assert rep.intersections == 411  # 427 events, 8 of them triple


def test_exact_fallback_matches_vectorized(monkeypatch):
    """_SIGN_SAFE = 1 forces the orientation pass onto arrays of Python ints,
    which reproduces the int64 pass exactly."""
    import tripods.topology as topo

    cases = [(G, (3, 1, 1, 2)), (E, (2, 1, 1, 3)), (G, (2, 1, 1, 2)),
             (G, (2, 0, 0, 2)), (E, (3, -1, 2, 2))]
    base = [self_intersections(Tripod.from_coords(lat, *c)) for lat, c in cases]
    monkeypatch.setattr(topo, "_SIGN_SAFE", 1)
    slow = [self_intersections(Tripod.from_coords(lat, *c)) for lat, c in cases]
    assert [(r.intersections, r.degenerate) for r in base] == \
        [(r.intersections, r.degenerate) for r in slow]


def test_orientation_signs_int64_safe_at_sign_safe(tracked):
    """Lattice-coordinate inputs that put 2 * max|pv| * max|q| just below
    _SIGN_SAFE, in every sign pattern: int64 signs equal the unbounded ones
    and no intermediate reaches 2^63."""
    import tripods.topology as topo

    M = 1500
    V = (topo._SIGN_SAFE - 1) // (2 * M) // 4
    L = (topo._SIGN_SAFE - 1) // (2 * M) - 2 * V
    pv = np.array([[M, M, -M, -M], [M, -M, M, -M], [-M, M, M, M]])
    v = np.array([[V, V], [-V, -V], [V, -V]])
    signs = np.array([[(k >> bit & 1) * 2 - 1 for k in range(4)] for bit in range(2)])
    ii, jj = (x.ravel() for x in np.meshgrid(range(3), range(3), range(4))[:2])
    lam = L * np.tile(signs, 9)
    max_q = 2 * V + L
    assert topo._SIGN_SAFE - 2 * M <= 2 * M * max_q < topo._SIGN_SAFE
    exact = topo._orientation_signs(*map(tracked.wrap, (pv, v, lam)), ii, jj)
    fast = topo._orientation_signs(pv, v, lam, ii, jj)
    assert all(np.array_equal(f, e) for f, e in zip(fast, exact))
    assert 2 ** 60 < tracked.peak < 2 ** 63


def _record_orientation_pass(monkeypatch, check=None):
    """Wrap _orientation_signs; returns a list of (dtype, guard) per call,
    the guard being 2 * max|pv| * max|q| of the call's arrays."""
    import tripods.topology as topo

    vector = topo._orientation_signs
    calls = []

    def recorded(pv, v, lam, ii, jj):
        max_q = int(2 * np.abs(v).max() + np.abs(lam).max())
        calls.append((pv.dtype, 2 * int(np.abs(pv).max()) * max_q))
        fast = vector(pv, v, lam, ii, jj)
        if check is not None:
            check(vector, fast, pv, v, lam, ii, jj)
        return fast

    monkeypatch.setattr(topo, "_orientation_signs", recorded)
    return calls


def test_self_intersections_int64_safe_near_sign_safe(tracked, monkeypatch):
    """A tripod whose guard 2 * max|pv| * max|q| is within 10% of _SIGN_SAFE
    takes the vectorized path, whose signs equal those of unbounded ints, and
    no intermediate of the unbounded run reaches 2^63."""
    import tripods.topology as topo

    def check(vector, fast, pv, v, lam, ii, jj):
        exact = vector(*map(tracked.wrap, (pv, v, lam)), ii, jj)
        assert all(np.array_equal(f, e) for f, e in zip(fast, exact))

    calls = _record_orientation_pass(monkeypatch, check)
    # a long thin tripod: the guard grows like ell^4 and the combos like ell^2
    rep = self_intersections(Tripod.from_coords(G, 0, 1, -88, 2))
    assert len(calls) == 1 and calls[0][0] == np.int64
    assert 0.9 * topo._SIGN_SAFE < calls[0][1] < topo._SIGN_SAFE
    assert 2 ** 50 < tracked.peak < 2 ** 63
    assert rep.intersections > 0 and not rep.degenerate


@pytest.mark.parametrize("k, crossings", [(45, 44), (60, 59), (77, 76), (89, 88)])
def test_past_sign_safe_stays_vectorized(monkeypatch, k, crossings):
    """Past the int64 guard (k = 77, 89) the orientation pass runs on Python
    ints; only combos with a vanishing sign reach the per-combo exact
    examination."""
    import tripods.topology as topo

    calls = []
    examine = topo._ExactLegGeometry.examine
    monkeypatch.setattr(topo._ExactLegGeometry, "examine",
                        lambda self, *args: calls.append(args) or examine(self, *args))
    rep = self_intersections(Tripod.from_coords(G, 0, 1, -k, 2))
    assert len(calls) < 100
    assert (rep.intersections, rep.degenerate) == (crossings, False)


@pytest.mark.parametrize("k, dtype", [(60, np.int64), (77, object)])
def test_orientation_pass_dtype(monkeypatch, k, dtype):
    """Lattice-coordinate leg rows keep (0,1,-60,2) on int64 arrays; (0,1,-77,2)
    is past the guard and runs on Python ints."""
    import tripods.topology as topo

    calls = _record_orientation_pass(monkeypatch)
    self_intersections(Tripod.from_coords(G, 0, 1, -k, 2))
    assert [c[0] for c in calls] == [dtype]
    assert (calls[0][1] < topo._SIGN_SAFE) == (dtype is np.int64)


def test_report_euler_arithmetic():
    rep = ImmersionReport.from_count(4, False)
    c0, c1, c2 = rep.cell_counts
    assert c0 == 6 and c1 == 11 and c2 == 5
    assert c1 - c0 == c2  # Euler characteristic 0


def test_exactly_one_lift_in_canonical_sector():
    """The half-open Toricelli sector, the predicate the census and the fiber
    canonicalization share, picks exactly one of the three lifts."""
    from tripods.census import _sector

    for lat in (G, E):
        for row in enumerate_tripods(lat, 6)[::7]:
            t = Tripod.from_coords(lat, *(int(x) for x in row))
            in_sector = [bool(_sector(lat, *lift)[0]) for lift in t.lifts()]
            assert sum(in_sector) == 1, t.coords
            assert in_sector[0], "enumerated tuples are already canonical"


def test_fiber_gaussian_unit_lattice():
    members = fiber_tripods((LatticeVector(1, 0), LatticeVector(0, 1)), G)
    coords = {t.coords for t in members}
    assert (1, 0, 0, 1) in coords
    assert len(members) == 4
    assert all(t.index_n == 1 for t in members)
    # paper bound: some lift of each member satisfies |z||w| <= 2/sqrt(3)
    for t in members:
        best = min(
            math.hypot(*G.embed_float(a, b)) * math.hypot(*G.embed_float(c, d))
            for (a, b, c, d) in t.lifts())
        assert best <= 2 / math.sqrt(3) + 1e-9


def test_fiber_eisenstein_unit_lattice():
    members = fiber_tripods((LatticeVector(1, 0), LatticeVector(0, 1)), E)
    coords = {t.coords for t in members}
    assert (1, 0, 0, 1) in coords
    assert len(members) == 2  # the up and down unit triangles
    assert all(t.index_n == 1 for t in members)


def test_fiber_sublattice_index():
    # sublattice 2Z[i]: members are doubled unit-lattice tripods, index 4
    members = fiber_tripods((LatticeVector(2, 0), LatticeVector(0, 2)), G)
    assert len(members) == 4
    assert all(t.index_n == 4 for t in members)
    assert {t.coords for t in members} == {
        (2 * a, 2 * b, 2 * c, 2 * d)
        for (a, b, c, d) in (t.coords for t in fiber_tripods(
            (LatticeVector(1, 0), LatticeVector(0, 1)), G))}


_NORM_FORMS = {"gaussian": lambda a, b: a * a + b * b,
               "eisenstein": lambda a, b: a * a + a * b + b * b}


@pytest.mark.parametrize("lat", [G, E], ids=["gaussian", "eisenstein"])
def test_fiber_appendix_lift_has_largest_angle_at_origin(lat):
    """An appendix member puts the strictly largest angle at the origin, under
    its own lattice's norm form, unless no lift does (a tie, which falls back
    to the sector rule); the member count equals lemma mode's."""
    norm = _NORM_FORMS[lat.mode]

    def largest_at_origin(a, b, c, d):
        q0 = norm(a + c, b + d) - norm(a, b) - norm(c, d)
        return min(norm(a, b), norm(c, d)) > q0

    for basis in [(1, 0, 0, 1), (1, 1, -1, 1), (1, 0, 1, 2), (2, 1, -1, 1),
                  (2, 0, 0, 2), (2, 1, -2, 1), (2, 2, -2, 1)]:
        pair = (LatticeVector(*basis[:2]), LatticeVector(*basis[2:]))
        members = fiber_tripods(pair, lat, mode="appendix")
        assert len(members) == len(fiber_tripods(pair, lat, mode="lemma")), basis
        for t in members:
            assert (largest_at_origin(*t.coords)
                    or not any(largest_at_origin(*lift) for lift in t.lifts())), (basis, t.coords)


@pytest.mark.parametrize("lat", [G, E], ids=["gaussian", "eisenstein"])
def test_fibers_partition_the_census(lat):
    """The fibers over the sigma(n) sublattices of index n, in Hermite form
    (p, 0), (q, r) with pr = n and 0 <= q < p, together hold exactly the
    census's tripods of index n."""
    R = 12
    histogram = census(CensusConfig(lattice=lat, radius=R)).index_histogram
    for n in range(1, 9):
        count = 0
        for p in (p for p in range(1, n + 1) if n % p == 0):
            for q in range(p):
                members = fiber_tripods((LatticeVector(p, 0), LatticeVector(q, n // p)), lat)
                count += sum(1 for t in members if t.length_sq < R * R)
        assert count == histogram.get(n, 0), n


@pytest.mark.parametrize("lat", [G, E], ids=["gaussian", "eisenstein"])
@pytest.mark.parametrize("k", [23_000, 24_000, 4_000_000_000])
def test_fiber_of_a_scaled_sublattice_is_scaled(lat, k):
    """Scaling keeps angles and the canonical lift, so the fiber over k*L is
    k times the fiber over L.  From k = 23000 to 24000 the Gaussian unit
    fiber crosses the int64 bound of the angle test; at k = 4e9 even the
    squared norms pass 2^63."""
    for basis in [(1, 0, 0, 1), (1, 1, -1, 1), (2, 1, -1, 1)]:
        for mode in ("lemma", "appendix"):
            small = fiber_tripods((LatticeVector(*basis[:2]), LatticeVector(*basis[2:])),
                                  lat, mode=mode)
            big = fiber_tripods((LatticeVector(k * basis[0], k * basis[1]),
                                 LatticeVector(k * basis[2], k * basis[3])), lat, mode=mode)
            assert [t.coords for t in big] == [tuple(k * x for x in t.coords) for t in small]


@pytest.mark.parametrize("lat, members", [
    (G, [(2, 173203, -49999, 86600), (50001, 86603, -49999, 86600),
         (50001, 86603, 2, 173203), (100000, 3, -49999, 86600),
         (100000, 3, 50001, 86603), (149999, -86597, 100000, 3)]),
    (E, [(-49999, 86600, -149999, 86597), (50001, 86603, -49999, 86600),
         (100000, 3, -49999, 86600), (100000, 3, 50001, 86603)]),
], ids=["gaussian", "eisenstein"])
def test_fiber_near_hexagonal_large_basis(lat, members):
    """A near-hexagonal basis with entries near 1e5, whose angle-test products
    pass int64, keeps the members the pure-Python enumeration found."""
    got = fiber_tripods((LatticeVector(100000, 3), LatticeVector(50001, 86603)), lat)
    assert [t.coords for t in got] == members


def test_fiber_rejects_dependent_basis():
    with pytest.raises(ValueError):
        fiber_tripods((LatticeVector(1, 1), LatticeVector(2, 2)), G)


def test_fiber_rejects_unknown_mode():
    unit = (LatticeVector(1, 0), LatticeVector(0, 1))
    for mode in ("bogus", "Lemma", ""):
        with pytest.raises(ValueError, match="mode"):
            fiber_tripods(unit, G, mode=mode)
    assert len(fiber_tripods(unit, G, mode=APPENDIX)) == len(fiber_tripods(unit, G, mode=LEMMA))


def test_fiber_members_span_their_lattice():
    members = fiber_tripods((LatticeVector(1, 1), LatticeVector(-1, 1)), G)
    assert members
    for t in members:
        a, b, c, d = t.coords
        # (z, w) must be a basis of the sublattice: determinant +-1 in its
        # coordinates, equivalently index_n equals the sublattice index
        assert t.index_n == 2
