"""Independent reference counter for tripods on the Gaussian and Eisenstein tori.

Pure Python integers only; nothing is imported from the `tripods` package.
The counts follow the paper's description directly:

* A tripod on C/(Z + Z*tau) lifts to a planar triangle (0, z, w) with
  z = a + b*tau, w = c + d*tau, positively oriented (index n = ad - bc > 0)
  and all three angles strictly below 2*pi/3.
* By the law of cosines the angle between the sides of squared lengths p, q
  opposite the side of squared length r is below 2*pi/3 iff
  p + q - r >= 0 or (p + q - r)^2 < p*q.  Squared side lengths are the
  lattice norms |z|^2, |w|^2, |z - w|^2 (integers on both lattices).
* The tripod length ell (the Fermat-Torricelli total length) satisfies
  ell^2 = (|z|^2 + |w|^2 + |z - w|^2) / 2 + 2*sqrt(3)*area(0, z, w),
  with area = n * covolume / 2 (covolume 1 for tau = i, sqrt(3)/2 for
  tau = e^{i*pi/3}).  A tripod is counted when ell < R.
* Each torus tripod has three planar lifts (the three choices of the vertex
  placed at the origin).  'lemma' keeps the lift whose Toricelli point
  u = e^{i*pi/3} z + e^{-i*pi/3} w has arg(u) in [0, 2*pi/3); 'appendix'
  keeps the lift whose largest angle is strictly at the origin, so tripods
  with a tied largest angle are not counted there.
* primitive: gcd(a, b, c, d) = 1.  angle tie: the largest angle is not
  unique (two longest sides tie).  sector boundary: u lies on a boundary ray
  of the lemma sector.

Coordinates of z, w and u are kept in Z[sqrt(3)] as integer pairs (p, q)
meaning p + q*sqrt(3), scaled so that everything stays integral, and signs
are decided without evaluating a square root.

Usage:
    python3 bench/reference.py --lattice gaussian --radius 35
prints one JSON object with both modes' counts and index histograms.
Gaussian R = 35 takes about a minute and regenerates the paper's appendix
value 312488.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from math import gcd

GAUSSIAN = "gaussian"
EISENSTEIN = "eisenstein"
LATTICES = (GAUSSIAN, EISENSTEIN)


def norm(lattice: str, a: int, b: int) -> int:
    """|a + b*tau|^2 as an integer."""
    if lattice == GAUSSIAN:
        return a * a + b * b
    return a * a + a * b + b * b


def lattice_points(lattice: str, radius_sq: int) -> list[tuple[int, int]]:
    """Nonzero (a, b) with |a + b*tau|^2 <= radius_sq, in sorted order."""
    r = math.isqrt(radius_sq) + 1
    bmax = r if lattice == GAUSSIAN else 2 * r
    amax = r if lattice == GAUSSIAN else 2 * r
    return [(a, b) for a in range(-amax, amax + 1) for b in range(-bmax, bmax + 1)
            if (a, b) != (0, 0) and norm(lattice, a, b) <= radius_sq]


# -- Z[sqrt(3)] --------------------------------------------------------------


def sign3(p: int, q: int) -> int:
    """Sign of p + q*sqrt(3) for integers p, q."""
    if p >= 0 and q >= 0:
        return 1 if (p or q) else 0
    if p <= 0 and q <= 0:
        return -1
    # opposite signs: compare p^2 with 3 q^2 (never equal unless both vanish)
    return (1 if p > 0 else -1) if p * p > 3 * q * q else (1 if q > 0 else -1)


def _r3(x: tuple[int, int]) -> tuple[int, int]:
    """Multiply p + q*sqrt(3) by sqrt(3)."""
    return (3 * x[1], x[0])


def _add(*xs: tuple[int, int]) -> tuple[int, int]:
    return (sum(x[0] for x in xs), sum(x[1] for x in xs))


def _neg(x: tuple[int, int]) -> tuple[int, int]:
    return (-x[0], -x[1])


def embed(lattice: str, a: int, b: int):
    """Planar coordinates of a + b*tau, scaled by 2 on the Eisenstein lattice."""
    if lattice == GAUSSIAN:
        return (a, 0), (b, 0)
    return (2 * a + b, 0), (0, b)


def toricelli_sector(lattice: str, a: int, b: int, c: int, d: int) -> tuple[bool, bool]:
    """(arg(u) in [0, 2*pi/3), u on a sector boundary ray).

    u = e^{i*pi/3} z + e^{-i*pi/3} w; with the factor 2 cleared,
    2u = (1 + i*sqrt(3)) z + (1 - i*sqrt(3)) w.
    """
    zx, zy = embed(lattice, a, b)
    wx, wy = embed(lattice, c, d)
    ux = _add(zx, _neg(_r3(zy)), wx, _r3(wy))
    uy = _add(_r3(zx), zy, wy, _neg(_r3(wx)))
    s_uy = sign3(*uy)
    s_ux = sign3(*ux)
    ray = _add(_r3(ux), uy)  # sqrt(3)*ux + uy: zero on the arg(u) = 2*pi/3 line
    s_ray = sign3(*ray)
    inside = (s_uy > 0 and s_ray > 0) or (s_uy == 0 and s_ux > 0)
    return inside, s_uy == 0 or s_ray == 0


def _angle_ok(p: int, q: int, r: int) -> bool:
    """Angle between sides of squared lengths p, q (opposite r) below 2*pi/3."""
    s = p + q - r
    return s >= 0 or s * s < p * q


def length_sq(lattice: str, a: int, b: int, c: int, d: int) -> tuple[int, int, int]:
    """ell^2 = (alpha + beta*sqrt(3)) / den as integers (alpha, beta, den)."""
    n = a * d - b * c
    sides = norm(lattice, a, b) + norm(lattice, c, d) + norm(lattice, a - c, b - d)
    if lattice == GAUSSIAN:
        # sides/2 + 2*sqrt(3)*(n/2)
        return sides, 2 * n, 2
    # covolume sqrt(3)/2: 2*sqrt(3)*n*sqrt(3)/4 = 3n/2
    return sides + 3 * n, 0, 2


def length_below(lattice: str, a: int, b: int, c: int, d: int, radius_sq: int,
                 inclusive: bool = False) -> bool:
    """ell^2 < R^2 (or <= with `inclusive`), exactly."""
    alpha, beta, den = length_sq(lattice, a, b, c, d)
    s = sign3(den * radius_sq - alpha, -beta)
    return s >= 0 if inclusive else s > 0


def classify_pair(lattice: str, a: int, b: int, c: int, d: int, radius_sq: int,
                  inclusive: bool = False):
    """None if (z, w) is not the lift of a tripod with ell < R; otherwise
    (lemma-canonical, appendix-canonical, angle tie, sector boundary)."""
    n = a * d - b * c
    if n <= 0:
        return None
    nz = norm(lattice, a, b)
    nw = norm(lattice, c, d)
    nzw = norm(lattice, a - c, b - d)
    # every side is shorter than ell, which is a cheap necessary condition
    if nzw > radius_sq:
        return None
    if not (_angle_ok(nz, nw, nzw) and _angle_ok(nz, nzw, nw) and _angle_ok(nw, nzw, nz)):
        return None
    if not length_below(lattice, a, b, c, d, radius_sq, inclusive):
        return None
    longest = max(nz, nw, nzw)
    tie = (nz, nw, nzw).count(longest) > 1
    appendix = nzw > nz and nzw > nw
    lemma, boundary = toricelli_sector(lattice, a, b, c, d)
    return lemma, appendix, tie, boundary


def _empty_counts() -> dict:
    return {"all_tripods": 0, "primitive": 0, "angle_tie": 0,
            "angle_tie_primitive": 0, "sector_boundary": 0, "index_histogram": {}}


def count(lattice: str, radius: int) -> dict:
    """Counts for both census modes at integer radius R (strict ell < R).

    The appendix rule has no tie or sector test, so its tie and boundary
    counts are 0 by construction.
    """
    if lattice not in LATTICES:
        raise ValueError(f"unknown lattice {lattice!r}")
    radius_sq = radius * radius
    pts = lattice_points(lattice, radius_sq)
    out = {"lemma": _empty_counts(), "appendix": _empty_counts()}
    for a, b in pts:
        gab = gcd(a, b)
        for c, d in pts:
            got = classify_pair(lattice, a, b, c, d, radius_sq)
            if got is None:
                continue
            lemma, appendix, tie, boundary = got
            primitive = gcd(gab, gcd(c, d)) == 1
            n = a * d - b * c
            for mode, keep in (("lemma", lemma), ("appendix", appendix)):
                if not keep:
                    continue
                rec = out[mode]
                rec["all_tripods"] += 1
                rec["primitive"] += primitive
                hist = rec["index_histogram"]
                hist[n] = hist.get(n, 0) + 1
                if mode == "lemma":
                    rec["angle_tie"] += tie
                    rec["angle_tie_primitive"] += tie and primitive
                    rec["sector_boundary"] += boundary
    for rec in out.values():
        rec["index_histogram"] = {str(k): v for k, v in sorted(rec["index_histogram"].items())}
    return out


def enumerate_lemma(lattice: str, radius: int, include_boundary: bool = False
                    ) -> list[tuple[int, int, int, int]]:
    """Lemma-canonical lifts (a, b, c, d) with ell < R (ell <= R if asked)."""
    radius_sq = radius * radius
    pts = lattice_points(lattice, radius_sq)
    out = []
    for a, b in pts:
        for c, d in pts:
            got = classify_pair(lattice, a, b, c, d, radius_sq, include_boundary)
            if got is not None and got[0]:
                out.append((a, b, c, d))
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--lattice", choices=LATTICES, required=True)
    parser.add_argument("--radius", type=int, required=True)
    args = parser.parse_args(argv)
    if args.radius < 1:
        parser.error("radius must be a positive integer")
    result = {"lattice": args.lattice, "radius": args.radius}
    result.update(count(args.lattice, args.radius))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
