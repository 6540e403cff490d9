"""Torus immersion analysis: self-intersections, cell structure, fibers.

The immersed tripod is analyzed by brute geometric force, independently of
any index formula: the three legs are lifted to plane segments and every pair
(leg_i, leg_j + lambda) over nearby lattice translates lambda is tested for a
transverse interior crossing with exact orientation predicates.

Exactness scheme: everything runs in lattice coordinates, where the basis
map (m, n) -> m + n*tau is linear with positive determinant and so keeps
every orientation.  The vertices and translates are integer vectors, and the
junction is the tripod's own exact p.  Each leg direction is scaled to
scale * ell^2 * (p - v_i), scale a positive integer, whose coordinates are
integer pairs (alpha, beta) = alpha + beta*sqrt(3); every cross coefficient
of one vectorized pass over all (leg pair, translate) combos is then
Lr x q + (Ls x q)*sqrt(3) on integers.  The pass runs on int64 arrays while
the guard 2 * max|pv| * max|q| < _SIGN_SAFE proves them exact, and on arrays
of Python ints past it.  A combo whose sign vanishes (touching or collinear
legs) is re-examined exactly with QuadraticNumber entries, and each crossing
is keyed by its lattice coordinates reduced mod 1, which detects coincident
intersections.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .census import (
    APPENDIX,
    LEMMA,
    _angles_below_120,
    _largest_at_origin,
    _sector,
    lattice_points_in_disk,
)
from .geometry import Tripod
from .lattice import LatticeSpec, LatticeVector
from .quadratic import VEC_ZERO, Vec2, _sign_root3_vec


@dataclass(frozen=True)
class ImmersionReport:
    """Transverse self-intersection count and derived cell structure.

    With k transverse double points the induced cell decomposition has
    c0 = k + 2 vertices, c1 = 2k + 3 edges, and c2 = c1 - c0 = k + 1 faces
    (the torus has Euler characteristic zero).
    """

    intersections: int
    degenerate: bool
    cell_counts: tuple[int, int, int]
    degenerate_reason: str | None = None

    @classmethod
    def from_count(cls, k: int, degenerate: bool, reason: str | None = None):
        return cls(k, degenerate, (k + 2, 2 * k + 3, k + 1), reason)


def region_count(report: ImmersionReport) -> int:
    """Number of complementary regions (c2); refuses degenerate reports."""
    if report.degenerate:
        raise ValueError("region count undefined for a degenerate immersion: "
                         f"{report.degenerate_reason}")
    return report.cell_counts[2]


_PAIRS = ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))

# |cross coefficients| must stay below sqrt(2^63 / 3) so the final
# alpha^2 - 3*beta^2 comparison cannot overflow int64
_SIGN_SAFE = 1_500_000_000


def _orientation_signs(pv, v, lam, ii, jj):
    """Signs o1..o4 of the orientation tests of each (leg ii, leg jj + lambda) combo.

    All coordinates are lattice coordinates.  pv holds one row (xr, xs, yr, ys)
    per leg, the direction (xr + xs*sqrt(3), yr + ys*sqrt(3)) on integers; v
    one integer row per vertex and lam one integer column per combo.  With
    q = v_jj + lambda - v_ii each cross coefficient is Lr x q + (Ls x q)*sqrt(3),
    Lr = (xr, yr) and Ls = (xs, ys), at most 2 * max|pv| * max|q| in size, so
    int64 arrays give exact signs while that product stays below _SIGN_SAFE;
    object arrays of Python ints give exact signs at any size.
    """
    q = v[jj].T + lam - v[ii].T

    def cross_sign(p, q):
        return _sign_root3_vec(p[0] * q[1] - p[2] * q[0], p[1] * q[1] - p[3] * q[0])

    pi, pj = pv[ii].T, pv[jj].T
    return cross_sign(pi, q), cross_sign(pi, lam), -cross_sign(pj, q), -cross_sign(pj, lam)


def self_intersections(tripod: Tripod) -> ImmersionReport:
    """Count transverse self-intersection points of the tripod on the torus.

    Independent geometric oracle: no index formula is consulted.  Degenerate
    immersions (vertex image on a leg interior, collinear overlapping legs,
    or any point hit by more than two strands) are flagged, not counted.
    """
    lat = tripod.lattice
    pa, pb = lat.to_lattice_coords(tripod.p)
    if pa.is_integer() and pb.is_integer():
        # the junction descends to the torus origin: the two graph vertices
        # merge and the double-point cell structure does not apply
        return ImmersionReport.from_count(0, True, "junction point is a lattice point")
    exact = _ExactLegGeometry(tripod, Vec2(pa, pb))
    leg_len = tripod.leg_lengths()

    pair_bounds = [leg_len[i] + leg_len[j] for (i, j) in _PAIRS]
    lam_all = lattice_points_in_disk(lat, max(pair_bounds) + 1e-6)
    # the origin joins at its lexicographic place, the middle of the centrally
    # symmetric disk: the order of the suspects decides degenerate_reason
    lam_all = np.insert(lam_all, len(lam_all) // 2, 0, axis=0)
    m = lam_all[:, 0]
    nn = lam_all[:, 1]
    lam_nsq = lat._norm(m, nn)
    nonzero = (m != 0) | (nn != 0)

    # assemble one row set over all (leg pair, translate) combos
    row_idx = []
    row_pair = []
    for pi, (i, j) in enumerate(_PAIRS):
        bound = pair_bounds[pi] + 1e-6
        keep = lam_nsq <= bound * bound
        if i == j:
            keep = keep & nonzero
        idx = np.nonzero(keep)[0]
        row_idx.append(idx)
        row_pair.append(np.full(len(idx), pi, dtype=np.int64))
    idx = np.concatenate(row_idx)
    pair_of = np.concatenate(row_pair)
    ii = np.array([p[0] for p in _PAIRS], dtype=np.int64)[pair_of]
    jj = np.array([p[1] for p in _PAIRS], dtype=np.int64)[pair_of]

    # integer leg rows scale * ell^2 * (p - v_i): ell^2 cancels the irrational
    # denominator of p and scale the small integer ones left; both are positive
    lsq = tripod.length_sq
    parts = [[f for x in (leg.x * lsq, leg.y * lsq) for f in (x.rational, x.root3)]
             for leg in exact.legs]
    scale = math.lcm(*(f.denominator for row in parts for f in row))
    pv = [[int(f * scale) for f in row] for row in parts]
    a, b, c, d = tripod.coords
    v = [[0, 0], [a, b], [c, d]]
    max_q = 2 * max(abs(x) for row in v for x in row) + int(np.max(np.abs(lam_all)))
    max_pv = max(abs(x) for row in pv for x in row)
    dtype = np.int64 if 2 * max_pv * max_q < _SIGN_SAFE else object
    o1, o2, o3, o4 = _orientation_signs(np.array(pv, dtype=dtype), np.array(v, dtype=dtype),
                                        lam_all[idx].T.astype(dtype), ii, jj)
    proper = (o1 * o2 < 0) & (o3 * o4 < 0)
    anyzero = (o1 == 0) | (o2 == 0) | (o3 == 0) | (o4 == 0)

    degenerate = False
    reason = None
    for k in np.nonzero(anyzero)[0]:
        why = exact.examine(int(ii[k]), int(jj[k]), *lam_all[idx[k]].tolist(),
                            (o1[k], o2[k], o3[k], o4[k]))
        if why is not None:
            degenerate = True
            reason = reason or why

    # dedupe by exact torus point; multiplicity > 1 means three or more
    # strands meet there and the transversal double-point picture fails
    points: dict[tuple, int] = {}
    for k in np.nonzero(proper)[0]:
        key = exact.crossing_key(int(ii[k]), int(jj[k]), *lam_all[idx[k]].tolist())
        points[key] = points.get(key, 0) + 1
    if any(v != 1 for v in points.values()):
        degenerate = True
        reason = reason or "multiple strands through one intersection point"
    return ImmersionReport.from_count(len(points), degenerate, reason)


class _ExactLegGeometry:
    """Exact examination of single combos, in lattice coordinates.

    Leg i runs from vertex v_i (0, z or w) to the junction p; a translate
    lambda shifts leg j to (v_j + lambda, p + lambda).  The basis map
    (m, n) -> m + n*tau is linear with positive determinant, so it keeps
    orientations, the order of points on a line and the parameter of a
    crossing: every test runs on lattice coordinates, where the vertices
    and translates are integers and only p has QuadraticNumber entries.
    """

    def __init__(self, tripod: Tripod, p: Vec2):
        a, b, c, d = tripod.coords
        self.v = (VEC_ZERO, Vec2(a, b), Vec2(c, d))
        self.p = p
        self.legs = tuple(p - v for v in self.v)

    @staticmethod
    def _strictly_inside(p0, p1, x) -> bool:
        """x strictly interior to [p0, p1], collinearity already established."""
        seg = p1 - p0
        return 0 < (x - p0).dot(seg) < seg.norm_sq()

    def examine(self, i, j, lm, ln, signs):
        """Degenerate reason of a combo with a vanishing orientation sign, or None.

        signs are o1..o4 from _orientation_signs: the orientations of c0 and
        d0 against leg a0b0, then of a0 and b0 against leg c0d0.
        """
        lam = Vec2(lm, ln)
        a0, b0, c0, d0 = self.v[i], self.p, self.v[j] + lam, self.p + lam
        o1, o2, o3, o4 = signs
        if o1 == 0 and o2 == 0:
            # collinear segments: an overlap of positive length is degenerate
            ab = self.legs[i]
            tc = (c0 - a0).dot(ab)
            td = (d0 - a0).dot(ab)
            lo, hi = min(tc, td), max(tc, td)
            if max(lo, 0) < min(hi, ab.norm_sq()):
                return "collinear overlapping legs"
            return None
        for x, s0, s1, o in ((c0, a0, b0, o1), (d0, a0, b0, o2),
                             (a0, c0, d0, o3), (b0, c0, d0, o4)):
            if o == 0 and self._strictly_inside(s0, s1, x):
                return "vertex image interior to a leg"
        return None

    def crossing_key(self, i, j, lm, ln):
        """Exact lattice coordinates of the crossing point, reduced mod 1."""
        ab, cd = self.legs[i], self.legs[j]
        q = self.v[j] + Vec2(lm, ln) - self.v[i]
        x = self.v[i] + ab.scale(q.cross(cd) / ab.cross(cd))
        return x.x - x.x.floor(), x.y - x.y.floor()


def degenerate_frequency(reports: list[ImmersionReport]) -> float:
    if not reports:
        return 0.0
    return sum(1 for r in reports if r.degenerate) / len(reports)


# -- fibers over a fixed spanning lattice -----------------------------------


def fiber_tripods(basis: tuple[LatticeVector, LatticeVector], lattice: LatticeSpec,
                  mode: str = LEMMA) -> list[Tripod]:
    """All tripods whose spanning lattice is exactly the given sublattice.

    Every such tripod has a lift with its largest angle at the origin, and
    for that lift |z| |w| <= 2 covol / sqrt(3); with L the shortest nonzero
    vector length both endpoints of that lift lie within 2 covol /
    (sqrt(3) L) of the origin.  Candidate pairs spanning the sublattice
    (ad - bc equal to its index, which also orients them) that pass the
    census's strict angle test are mapped to their canonical lift and
    deduplicated.
    """
    if mode not in (LEMMA, APPENDIX):
        raise ValueError(f"unknown census mode {mode!r}")
    if not lattice.is_exact:
        raise ValueError("fiber enumeration requires a preset lattice")
    v1, v2 = basis
    det = abs(v1.a * v2.b - v1.b * v2.a)
    if det == 0:
        raise ValueError("basis vectors are dependent")
    sub = ((v1.a, v1.b), (v2.a, v2.b))
    # the 1e-9 keeps v1 or v2 itself against sqrt rounding
    r0 = math.sqrt(min(lattice._norm(*sub[0]), lattice._norm(*sub[1]))) * (1 + 1e-9)
    near = lattice_points_in_disk(lattice, r0, sub)
    shortest = math.sqrt(lattice._norm(near[:, 0], near[:, 1]).min())
    box_r = 2 * (det * lattice.covolume) / (math.sqrt(3.0) * shortest) * (1 + 1e-9)
    cand = lattice_points_in_disk(lattice, box_r, sub)
    if 4 * box_r * box_r >= 2**31.5:
        # the angle test's largest square, (2 z.(z - w))^2 <= 16 box_r^4, can pass int64
        cand = cand.astype(object)

    pairs = []
    for i, (a, b) in enumerate(cand.tolist()):
        w = cand[a * cand[:, 1] - b * cand[:, 0] == det]
        c, d = w[:, 0], w[:, 1]
        nz, nw, q0 = lattice._norm(a, b), lattice._norm(c, d), lattice._polar(a, b, c, d)
        w = w[_angles_below_120(nz, nw, nz + nw - q0, q0)]
        pairs.append(np.hstack([np.broadcast_to(cand[i], w.shape), w]))
    a, b, c, d = np.concatenate(pairs).T
    # lifts[k, :, i] is lift k of pair i; exactly one lies in the half-open sector
    lifts = np.array([(a, b, c, d), (c - a, d - b, -a, -b), (-c, -d, a - c, b - d)])
    la, lb, lc, ld = lifts.transpose(1, 0, 2)
    pick = _sector(lattice, la, lb, lc, ld)[0]
    if mode == APPENDIX:
        # the lift with the strictly largest angle at the origin; ties keep the sector's
        origin = _largest_at_origin(lattice._norm(la, lb), lattice._norm(lc, ld),
                                    lattice._polar(la, lb, lc, ld))
        pick = np.where(origin.any(axis=0), origin, pick)
    rows = lifts[pick.argmax(axis=0), :, np.arange(len(a))]
    return [Tripod.from_coords(lattice, *row) for row in sorted(set(map(tuple, rows.tolist())))]
