"""Euclidean tripod geometry: existence, lengths, junction points, classification.

A tripod spans the triangle (0, z, w) with z = a + b*tau, w = c + d*tau,
positively oriented (ad - bc > 0) and all three angles strictly below 2*pi/3.
Its three legs meet at the interior junction point p (the distance-minimizing
point) at pairwise angles 2*pi/3, and the total leg length satisfies
ell = |u| with u = e^{i*pi/3} z + e^{-i*pi/3} w.

All predicates here are exact in the preset lattice modes: the junction point
is the closed form p = (z.w + (z x w)/sqrt(3)) / ell^2 * u in Q(sqrt(3)),
never trigonometry, so the classification of lattice points on legs stays
branch-exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .lattice import (
    LatticeSpec,
    heuristic_points_on_open_segment,
    is_primitive_quadruple,
    lattice_points_on_open_segment,
)
from .quadratic import VEC_ZERO, QuadraticNumber, Vec2


class InvalidTripodError(ValueError):
    """A quadruple fails a tripod precondition; `predicate` names the failure."""

    def __init__(self, predicate: str, message: str):
        super().__init__(message)
        self.predicate = predicate


def _angle_below_120(u: Vec2, v: Vec2) -> bool:
    """Angle between u and v strictly below 2*pi/3, exactly.

    cos(theta) > -1/2 holds automatically when the dot product is
    nonnegative; otherwise compare 4*dot^2 against |u|^2 |v|^2.
    """
    d = u.dot(v)
    if d.sign() >= 0:
        return True
    return (QuadraticNumber(4) * d * d - u.norm_sq() * v.norm_sq()).sign() < 0


def angle_condition(z: Vec2, w: Vec2) -> bool:
    """True iff all three angles of the triangle (0, z, w) are < 2*pi/3."""
    if z.is_zero() or w.is_zero():
        raise InvalidTripodError("nonzero", "triangle vertices must be nonzero")
    if z.cross(w).sign() == 0:
        raise InvalidTripodError("collinear", "z and w are collinear with 0")
    return (_angle_below_120(z, w)
            and _angle_below_120(-z, w - z)
            and _angle_below_120(-w, z - w))


def toricelli_point(z: Vec2, w: Vec2) -> Vec2:
    """u = e^{i*pi/3} z + e^{-i*pi/3} w: apex of the equilateral triangle on zw.

    |u| equals the tripod length and arg(u) equals arg(p).
    """
    return z.rotate60() + w.rotate_minus60()


# C / sqrt(3) = C * sqrt(3) / 3
_ROOT3_THIRD = QuadraticNumber(0, Fraction(1, 3))


def tripod_length_sq(z: Vec2, w: Vec2) -> QuadraticNumber:
    """Squared tripod length |u|^2 = |z|^2 + |w|^2 - Re(z w~) + sqrt(3) Im(z~ w)."""
    return toricelli_point(z, w).norm_sq()


def fermat_point(z: Vec2, w: Vec2) -> Vec2:
    """Junction point p of the tripod inscribed in (0, z, w), exactly.

    p lies on the ray through u at distance ell_1 from the origin, so
    p = (ell_1/ell) * u = (S + C/sqrt(3)) / ell^2 * u with the ratio of
    leg_fractions.  Requires the strict angle condition: at the 2*pi/3
    boundary the junction degenerates onto a vertex.
    """
    if not angle_condition(z, w):
        raise InvalidTripodError("angle", "triangle has an angle >= 2*pi/3")
    c = z.cross(w)
    if c.sign() < 0:
        raise InvalidTripodError("orientation", "pair must be positively oriented")
    u = toricelli_point(z, w)
    return u.scale((z.dot(w) + c * _ROOT3_THIRD) / u.norm_sq())


def leg_fractions(z: Vec2, w: Vec2) -> tuple[QuadraticNumber, QuadraticNumber, QuadraticNumber]:
    """Exact ratios (ell_1/ell, ell_2/ell, ell_3/ell) of leg lengths to total.

    Writing S = Re(z w~) and C = Im(z~ w), the legs from 0, z, w have
    ell_1/ell = (S + C/sqrt(3)) / ell^2 and cyclic analogues; the three
    fractions sum to 1 exactly.
    """
    s = z.dot(w)
    lsq = tripod_length_sq(z, w)
    c_div = z.cross(w) * _ROOT3_THIRD
    t1 = (s + c_div) / lsq
    t2 = (z.norm_sq() - s + c_div) / lsq
    t3 = (w.norm_sq() - s + c_div) / lsq
    return t1, t2, t3


@dataclass(frozen=True)
class TripodFlags:
    primitive: bool
    reduced: bool | None
    heuristic: bool = False


@dataclass
class Tripod:
    """A validated tripod with its derived exact geometry.

    coords (a, b, c, d) give z = a + b*tau, w = c + d*tau with ad - bc > 0
    and all triangle angles strictly below 2*pi/3.
    """

    lattice: LatticeSpec
    a: int
    b: int
    c: int
    d: int
    z: Vec2
    w: Vec2
    u: Vec2
    p: Vec2
    length_sq: QuadraticNumber
    index_n: int

    @classmethod
    def from_coords(cls, lattice: LatticeSpec, a: int, b: int, c: int, d: int) -> "Tripod":
        if (a, b) == (0, 0) or (c, d) == (0, 0):
            raise InvalidTripodError("nonzero", "endpoints must be nonzero lattice points")
        n = a * d - b * c
        if n == 0:
            raise InvalidTripodError("collinear", "endpoints are collinear with 0 (ad - bc = 0)")
        if n < 0:
            raise InvalidTripodError(
                "orientation", "pair is negatively oriented (ad - bc < 0); swap z and w")
        if not lattice.is_exact:
            raise ValueError("exact Tripod construction requires a preset lattice")
        z = lattice.embed(a, b)
        w = lattice.embed(c, d)
        p = fermat_point(z, w)  # raises the angle error
        u = toricelli_point(z, w)
        return cls(lattice, a, b, c, d, z, w, u, p, u.norm_sq(), n)

    @property
    def coords(self) -> tuple[int, int, int, int]:
        return self.a, self.b, self.c, self.d

    def length(self) -> float:
        return math.sqrt(float(self.length_sq))

    def leg_lengths(self) -> tuple[float, float, float]:
        """(|p|, |z - p|, |w - p|) as floats derived from the exact junction."""
        return (self.p.norm_float(),
                (self.z - self.p).norm_float(),
                (self.w - self.p).norm_float())

    def lifts(self) -> list[tuple[int, int, int, int]]:
        """The three planar lifts of this torus tripod, as coordinate tuples."""
        a, b, c, d = self.coords
        return [(a, b, c, d), (c - a, d - b, -a, -b), (-c, -d, a - c, b - d)]


def classify(tripod: Tripod) -> TripodFlags:
    """Primitive/reduced flags via exact segment queries.

    primitive: gcd(a, b, c, d) = 1.  reduced: primitive, no lattice point
    strictly interior to any of the three legs, and the junction point is not
    a lattice point.
    """
    lat = tripod.lattice
    primitive = is_primitive_quadruple(*tripod.coords)
    if not primitive:
        return TripodFlags(primitive=False, reduced=False)
    p = tripod.p
    legs = ((VEC_ZERO, p), (tripod.z, p), (tripod.w, p))
    for start, end in legs:
        if lattice_points_on_open_segment(start, end, lat):
            return TripodFlags(primitive=True, reduced=False)
    la, lb = lat.to_lattice_coords(p)
    if la.is_integer() and lb.is_integer():
        return TripodFlags(primitive=True, reduced=False)
    return TripodFlags(primitive=True, reduced=True)


def classify_heuristic(lattice: LatticeSpec, a: int, b: int, c: int, d: int) -> TripodFlags:
    """Float classification for general-tau lattices; flagged heuristic.

    Exact on-leg incidences are measure zero over tau, so detection within
    the lattice epsilon is the best available and callers must treat the
    reduced flag as approximate.
    """
    primitive = is_primitive_quadruple(a, b, c, d)
    if not primitive:
        return TripodFlags(primitive=False, reduced=False, heuristic=True)
    zx, zy = lattice.embed_float(a, b)
    wx, wy = lattice.embed_float(c, d)
    px, py = fermat_point_float(zx, zy, wx, wy)
    # junction within epsilon of a lattice point (this also covers boundary
    # tuples whose junction collapses onto a triangle vertex)
    pa, pb = lattice.to_lattice_coords_float(px, py)
    gx, gy = lattice.embed_float(round(pa), round(pb))
    if math.hypot(px - gx, py - gy) < lattice.epsilon:
        return TripodFlags(primitive=True, reduced=False, heuristic=True)
    for sx, sy in ((0.0, 0.0), (zx, zy), (wx, wy)):
        if math.hypot(px - sx, py - sy) < lattice.epsilon:
            return TripodFlags(primitive=True, reduced=False, heuristic=True)
        if heuristic_points_on_open_segment(sx, sy, px, py, lattice):
            return TripodFlags(primitive=True, reduced=False, heuristic=True)
    return TripodFlags(primitive=True, reduced=True, heuristic=True)


def fermat_point_float(zx: float, zy: float, wx: float, wy: float) -> tuple[float, float]:
    """Float junction point: segment(0, u) meets segment(z, e^{i*pi/3} w).

    e^{i*pi/3} w is the apex of the equilateral triangle erected on the side
    0w away from the triangle.
    """
    c60, s60 = 0.5, math.sqrt(3.0) / 2.0
    ux = (c60 * zx - s60 * zy) + (c60 * wx + s60 * wy)
    uy = (s60 * zx + c60 * zy) + (c60 * wy - s60 * wx)
    ax = c60 * wx - s60 * wy - zx
    ay = s60 * wx + c60 * wy - zy
    t = (zx * ay - zy * ax) / (ux * ay - uy * ax)
    return t * ux, t * uy


def tripod_volume_and_index(tripod: Tripod) -> tuple[float, int]:
    """(volume, index): volume = (sqrt(3)/4)(ell^2 - L2^2), index = ad - bc.

    The covolume of the spanning lattice equals index * covolume(lattice);
    the identity is asserted to 1e-9 relative.
    """
    ell1, ell2, ell3 = tripod.leg_lengths()
    lsq = float(tripod.length_sq)
    l2sq = ell1 * ell1 + ell2 * ell2 + ell3 * ell3
    volume = math.sqrt(3.0) / 4.0 * (lsq - l2sq)
    expected = tripod.index_n * tripod.lattice.covolume
    if abs(volume - expected) > 1e-9 * max(1.0, abs(expected)):
        raise AssertionError(
            f"volume identity violated: {volume} vs index*covol {expected}")
    return volume, tripod.index_n
