import math
from fractions import Fraction

import pytest

from tripods.geometry import (
    InvalidTripodError,
    Tripod,
    _lattice_points_inside_leg,
    angle_condition,
    classify,
    classify_heuristic,
    fermat_point,
    leg_fractions,
    toricelli_point,
    tripod_length_sq,
    tripod_volume_and_index,
)
from tripods.lattice import eisenstein_lattice, gaussian_lattice, general_lattice
from tripods.quadratic import QuadraticNumber, Vec2

G = gaussian_lattice()
E = eisenstein_lattice()


def qn(r, s=0):
    return QuadraticNumber(Fraction(r), Fraction(s))


def test_angle_condition_examples():
    assert angle_condition(G.embed(1, 0), G.embed(0, 1))
    # angle at 0 is 3*pi/4 > 2*pi/3
    assert not angle_condition(G.embed(1, 0), G.embed(-1, 1))
    # equilateral
    assert angle_condition(E.embed(1, 0), E.embed(0, 1))


def test_angle_condition_rejects_degenerate():
    with pytest.raises(InvalidTripodError):
        angle_condition(G.embed(1, 0), G.embed(2, 0))
    with pytest.raises(InvalidTripodError):
        angle_condition(G.embed(1, 0), G.embed(-2, 0))


def test_angle_boundary_excluded():
    # angle at z is exactly 2*pi/3 for z = zeta, w = -1 + 2*zeta
    assert not angle_condition(E.embed(0, 1), E.embed(-1, 2))


def test_length_sq_examples():
    assert tripod_length_sq(G.embed(1, 0), G.embed(0, 1)) == qn(2, 1)
    assert tripod_length_sq(E.embed(1, 0), E.embed(0, 1)) == qn(3, 0)
    assert tripod_length_sq(G.embed(2, 0), G.embed(0, 2)) == qn(8, 4)


def test_length_sq_closed_forms():
    # generic coordinates against the expanded closed forms
    for (a, b, c, d) in [(3, 1, 1, 2), (2, -1, 3, 1), (5, 2, 1, 3)]:
        n = a * d - b * c
        got = tripod_length_sq(G.embed(a, b), G.embed(c, d))
        x = a * a + b * b + c * c + d * d - a * c - b * d
        assert got == qn(x, n)
        got_e = tripod_length_sq(E.embed(a, b), E.embed(c, d))
        um, un = -b + c + d, a + b - c
        assert got_e == qn(um * um + um * un + un * un, 0)


def test_toricelli_examples():
    u = toricelli_point(G.embed(1, 0), G.embed(0, 1))
    assert u.x == qn(Fraction(1, 2), Fraction(1, 2))
    assert u.y == qn(Fraction(1, 2), Fraction(1, 2))
    # Eisenstein Toricelli point is itself a lattice point
    for (a, b, c, d) in [(1, 0, 0, 1), (2, 1, 1, 3), (1, -1, 2, 3)]:
        u = toricelli_point(E.embed(a, b), E.embed(c, d))
        assert u == E.embed(-b + c + d, a + b - c)
    # unit pair z=1, w=e^{i*pi/3}
    u = toricelli_point(E.embed(1, 0), E.embed(0, 1))
    assert u == E.embed(1, 1)


def test_fermat_point_reference_value():
    p = fermat_point(G.embed(1, 0), G.embed(0, 1))
    expected = qn(Fraction(1, 2), Fraction(-1, 6))  # (3 - sqrt(3))/6
    assert p.x == expected and p.y == expected


def test_fermat_point_equilateral_centroid():
    p = fermat_point(E.embed(1, 0), E.embed(0, 1))
    centroid = Vec2((E.embed(1, 0).x + E.embed(0, 1).x) * QuadraticNumber(Fraction(1, 3)),
                    (E.embed(1, 0).y + E.embed(0, 1).y) * QuadraticNumber(Fraction(1, 3)))
    assert p == centroid


def test_fermat_point_scaling_homogeneity():
    p1 = fermat_point(G.embed(2, 1), G.embed(1, 3))
    p2 = fermat_point(G.embed(4, 2), G.embed(2, 6))
    assert p2.x == p1.x * 2 and p2.y == p1.y * 2


def test_fermat_point_interior_and_leg_angles():
    for lat, (a, b, c, d) in [(G, (2, 1, 1, 3)), (E, (2, 1, 1, 3)), (G, (1, 0, 0, 1))]:
        z, w = lat.embed(a, b), lat.embed(c, d)
        p = fermat_point(z, w)
        # strictly inside the triangle
        assert (z - Vec2(qn(0), qn(0))).cross(p).sign() > 0
        assert (w - z).cross(p - z).sign() > 0
        assert (Vec2(qn(0), qn(0)) - w).cross(p - w).sign() > 0
        # rotating the z-leg by -60 deg aligns it with p's direction, and the
        # w-leg by +60 deg: the legs meet pairwise at 2*pi/3
        legz = (z - p).rotate60()
        legw = (w - p).rotate_minus60()
        assert p.cross(legz).sign() == 0 and p.dot(legz).sign() > 0
        assert p.cross(legw).sign() == 0 and p.dot(legw).sign() > 0


def test_fermat_rejects_boundary_angle():
    with pytest.raises(InvalidTripodError):
        fermat_point(E.embed(0, 1), E.embed(-1, 2))


def test_leg_fractions_sum_to_one():
    for lat, (a, b, c, d) in [(G, (2, 1, 1, 3)), (E, (3, -1, 2, 2))]:
        t1, t2, t3 = leg_fractions(lat.embed(a, b), lat.embed(c, d))
        assert t1 + t2 + t3 == QuadraticNumber(1)
        assert t1.sign() > 0 and t2.sign() > 0 and t3.sign() > 0


def test_tripod_from_coords_validation():
    with pytest.raises(InvalidTripodError) as err:
        Tripod.from_coords(G, 1, 0, 1, 0)
    assert err.value.predicate == "collinear"
    with pytest.raises(InvalidTripodError) as err:
        Tripod.from_coords(G, 0, 1, 1, 0)
    assert err.value.predicate == "orientation"
    with pytest.raises(InvalidTripodError) as err:
        Tripod.from_coords(G, 1, 0, -1, 1)
    assert err.value.predicate == "angle"
    with pytest.raises(InvalidTripodError):
        Tripod.from_coords(G, 0, 0, 1, 0)


def test_length_identity_legs_sum():
    for lat, coords in [(G, (1, 0, 0, 1)), (G, (3, 1, 1, 2)), (E, (2, 1, 1, 3))]:
        t = Tripod.from_coords(lat, *coords)
        l1, l2, l3 = t.leg_lengths()
        assert l1 + l2 + l3 == pytest.approx(t.length(), rel=1e-12)


def test_argument_identity_p_parallel_u():
    for lat, coords in [(G, (2, 1, 1, 3)), (E, (3, 0, 1, 2)), (G, (5, 1, 2, 4))]:
        t = Tripod.from_coords(lat, *coords)
        assert t.p.cross(t.u).sign() == 0
        assert t.p.dot(t.u).sign() > 0


def test_area_identity():
    # Area of the spanned triangle equals (sqrt(3)/4)(l1 l2 + l1 l3 + l2 l3)
    for lat, coords in [(G, (2, 1, 1, 3)), (E, (2, 1, 1, 3)), (G, (4, 1, 1, 5))]:
        t = Tripod.from_coords(lat, *coords)
        l1, l2, l3 = t.leg_lengths()
        lhs = math.sqrt(3) / 4 * (l1 * l2 + l1 * l3 + l2 * l3)
        area = abs(t.index_n) * lat.covolume / 2
        assert lhs == pytest.approx(area, rel=1e-9)


def test_classify_examples():
    flags = classify(Tripod.from_coords(G, 1, 0, 0, 1))
    assert flags.primitive and flags.reduced
    flags = classify(Tripod.from_coords(G, 2, 0, 0, 2))
    assert not flags.primitive and not flags.reduced
    # junction on the diagonal passes through (1,1)
    flags = classify(Tripod.from_coords(G, 2, 1, 1, 2))
    assert flags.primitive and not flags.reduced


def test_classify_eisenstein_nonprimitive_toricelli_sufficient_condition():
    # u = 2 + 2*zeta is nonprimitive and the junction leg takes 2/3 of the
    # total length, so the primitive step along u lands inside the leg
    t = Tripod.from_coords(E, 2, 1, 1, 2)
    # interior lattice point on the junction leg
    assert _lattice_points_inside_leg(*E.to_lattice_coords(t.p)) > 0
    flags = classify(t)
    assert flags.primitive and not flags.reduced


def test_classify_nonprimitive_toricelli_long_junction_leg():
    # u = 3*zeta is nonprimitive and ell_1 = ell/3 exceeds |u|/3 boundary:
    # junction lands exactly on the lattice point zeta
    t = Tripod.from_coords(E, 1, 1, -1, 2)
    la, lb = E.to_lattice_coords(t.p)
    assert la.is_integer() and lb.is_integer()
    flags = classify(t)
    assert flags.primitive and not flags.reduced


def test_volume_and_index():
    v, n = tripod_volume_and_index(Tripod.from_coords(G, 1, 0, 0, 1))
    assert n == 1 and v == pytest.approx(1.0, rel=1e-12)
    v, n = tripod_volume_and_index(Tripod.from_coords(G, 2, 1, 1, 2))
    assert n == 3 and v == pytest.approx(3.0, rel=1e-12)
    v, n = tripod_volume_and_index(Tripod.from_coords(E, 1, 0, 0, 1))
    assert n == 1 and v == pytest.approx(math.sqrt(3) / 2, rel=1e-12)


def test_homogeneity_scaling():
    t1 = Tripod.from_coords(G, 3, 1, 1, 2)
    t2 = Tripod.from_coords(G, 6, 2, 2, 4)
    assert t2.length_sq == t1.length_sq * 4
    assert t2.p.x == t1.p.x * 2
    assert angle_condition(G.embed(6, 2), G.embed(2, 4))


def _angle_ok_int(lat_mode, a, b, c, d):
    """Pure-integer angle predicate, independent of the geometry module."""
    if lat_mode == "gaussian":
        nz, nw = a * a + b * b, c * c + d * d
        q0 = 2 * (a * c + b * d)
        nzw = (a - c) ** 2 + (b - d) ** 2
    else:
        nz, nw = a * a + a * b + b * b, c * c + c * d + d * d
        q0 = 2 * a * c + 2 * b * d + a * d + b * c
        e1, e2 = a - c, b - d
        nzw = e1 * e1 + e1 * e2 + e2 * e2
    qz, qw = 2 * nz - q0, 2 * nw - q0
    return ((q0 >= 0 or q0 * q0 < nz * nw)
            and (qz >= 0 or qz * qz < nz * nzw)
            and (qw >= 0 or qw * qw < nw * nzw))


def test_angle_predicate_brute_force_vs_float():
    """Exact predicate vs float angles for all |a|,..,|d| <= 8 (Gaussian)."""
    tol = 1e-9
    checked = 0
    sampled = 0
    for a in range(-8, 9):
        for b in range(-8, 9):
            if (a, b) == (0, 0):
                continue
            for c in range(-8, 9):
                for d in range(-8, 9):
                    if (c, d) == (0, 0) or a * d - b * c == 0:
                        continue
                    exact = _angle_ok_int("gaussian", a, b, c, d)
                    z = complex(a, b)
                    w = complex(c, d)
                    worst = min(
                        (x.real * y.real + x.imag * y.imag) / (abs(x) * abs(y))
                        for x, y in ((z, w), (-z, w - z), (-w, z - w)))
                    if abs(worst + 0.5) > tol:
                        assert exact == (worst > -0.5), (a, b, c, d)
                        checked += 1
                    sampled += 1
                    if sampled % 997 == 0:
                        assert exact == angle_condition(G.embed(a, b), G.embed(c, d))
    assert checked > 80_000


def test_classify_heuristic_general_tau():
    lat = general_lattice(0.5, math.sqrt(3) / 2)  # numerically eisenstein
    flags = classify_heuristic(lat, 1, 1, -1, 2)
    assert flags.heuristic
    assert not flags.reduced  # junction sits on a lattice point
    flags = classify_heuristic(lat, 1, 0, 0, 1)
    assert flags.heuristic and flags.reduced
