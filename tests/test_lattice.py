import math
from fractions import Fraction
from math import gcd

import pytest

from tripods.geometry import _lattice_points_inside_leg as leg, fermat_point
from tripods.lattice import (
    LatticeVector,
    eisenstein_lattice,
    gaussian_lattice,
    general_lattice,
    heuristic_points_on_open_segment,
    is_primitive_quadruple,
    parse_lattice,
)
from tripods.quadratic import QuadraticNumber as Q


def test_parse_grammar():
    assert parse_lattice("gaussian").mode == "gaussian"
    assert parse_lattice("eisenstein").mode == "eisenstein"
    lat = parse_lattice("tau=0.3,1.1")
    assert lat.mode == "general"
    assert lat.tau_s == pytest.approx(0.3)
    assert lat.tau_t == pytest.approx(1.1)
    with pytest.raises(ValueError):
        parse_lattice("hexagonal")
    with pytest.raises(ValueError):
        parse_lattice("tau=1.0,-2.0")


def test_covolume():
    assert gaussian_lattice().covolume == 1.0
    assert eisenstein_lattice().covolume == pytest.approx(math.sqrt(3) / 2)
    assert general_lattice(0.3, 2.0).covolume == 2.0
    assert eisenstein_lattice().covolume_exact() == Q(0, Fraction(1, 2))


def test_embedding_round_trip():
    for lat in (gaussian_lattice(), eisenstein_lattice()):
        for a in range(-5, 6):
            for b in range(-5, 6):
                pt = lat.embed(a, b)
                ra, rb = lat.to_lattice_coords(pt)
                assert ra == Q(a)
                assert rb == Q(b)


def test_primitive_quadruple():
    assert is_primitive_quadruple(1, 0, 0, 1)
    assert not is_primitive_quadruple(2, 0, 0, 2)
    assert is_primitive_quadruple(2, 4, 6, 3)
    with pytest.raises(ValueError):
        is_primitive_quadruple(0, 0, 0, 0)


# -- lattice points strictly inside a leg from an integer vertex V to V + e,
# with e in lattice coordinates


def test_segment_midpoint():
    assert leg(Q(2), Q(2)) == 1
    assert leg(Q(-3), Q(0)) == 2


def test_segment_primitive_vector_empty():
    assert leg(Q(1), Q(1)) == 0


def test_segment_to_fermat_point_empty():
    lat = gaussian_lattice()
    p = fermat_point(lat.embed(1, 0), lat.embed(0, 1))
    assert leg(*lat.to_lattice_coords(p)) == 0


def test_segment_gcd_property_exhaustive():
    for lat in (gaussian_lattice(), eisenstein_lattice()):
        for a in range(-20, 21):
            for b in range(-20, 21):
                if (a, b) == (0, 0):
                    continue
                assert leg(*lat.to_lattice_coords(lat.embed(a, b))) == gcd(a, b) - 1, (a, b)


def test_segment_symmetry():
    # the leg between the integer points (-1, 2) and (5, -4), from either end
    assert leg(Q(6), Q(-6)) == leg(Q(-6), Q(6)) == gcd(6, 6) - 1


def test_segment_irrational_direction():
    # e = r + s*sqrt(3) with r x s != 0: the supporting line meets no
    # integer point besides the vertex
    assert leg(Q(3, Fraction(-1, 3)), Q(-1, 1)) == 0


def test_leg_irrational_length_along_rational_direction():
    root3 = Q(0, 1)
    # e = 2*sqrt(3)*(1, 1): lam = 3.46 along f = (1, 1)
    assert leg(2 * root3, 2 * root3) == 3
    # e = (1 + sqrt(3))*(1, 2): lam = 2.73 along f = (1, 2)
    assert leg(1 + root3, 2 + 2 * root3) == 2
    # e = (1 - 2*sqrt(3))*(1, 1): r points away from e, lam = 2.46 along (-1, -1)
    assert leg(1 - 2 * root3, 1 - 2 * root3) == 2
    # rational lam = 1.5 along (3, 2): the far end is not inside
    assert leg(Q(Fraction(9, 2)), Q(3)) == 1
    assert leg(Q(6), Q(4)) == 1


def test_heuristic_segment():
    lat = general_lattice(0.5, math.sqrt(3) / 2)  # numerically eisenstein
    x, y = lat.embed_float(2, 2)
    pts = heuristic_points_on_open_segment(0.0, 0.0, x, y, lat)
    assert pts == [LatticeVector(1, 1)]
    x, y = lat.embed_float(1, 1)
    assert heuristic_points_on_open_segment(0.0, 0.0, x, y, lat) == []
