"""High-throughput tripod census: enumerate all tripods with length <= R.

A torus tripod corresponds to exactly one planar endpoint pair (z, w) once a
canonicalization is fixed, so counting tripods reduces to scanning integer
quadruples (a, b, c, d) with |z| <= R, |w| <= R and testing, per tuple:

  orientation      ad - bc > 0
  angle condition  all three triangle angles strictly < 2*pi/3
  length           ell^2 < R^2, compared exactly in Q(sqrt(3))
  canonicalization 'lemma': arg(u) in [0, 2*pi/3) (half-open exact sector)
                   'appendix': largest triangle angle strictly at the origin

Every predicate is an integer sign test (int64-safe for R <= 10^4), so the
scan vectorizes over the w-points of each z-point.  `census` and
`enumerate_tripods` consume the same single-threaded scan.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import analytics, geometry
from .lattice import EISENSTEIN, GAUSSIAN, GENERAL, LatticeSpec
from .quadratic import _sign_root3_vec

LEMMA = "lemma"
APPENDIX = "appendix"

# Predicate intermediates are bounded by 48 R^4 (the Gaussian reducedness
# test); int64 holds that up to R ~ 2.1e4.  The enforced limit leaves a margin.
MAX_EXACT_RADIUS = 10_000
# Largest coefficient box lattice_points_in_disk builds (Gaussian R ~ 2500).
# Its measured peak allocation is about 50 bytes per cell on all three lattice
# kinds (full boxes of a, b and norms, then the kept rows), so about 1.25 GB
# at the bound.
MAX_DISK_CELLS = 25_000_000


class OverflowLimitError(OverflowError):
    """Input beyond the proven int64-safe range or the feasible disk size."""


@dataclass(frozen=True)
class CensusConfig:
    lattice: LatticeSpec
    radius: float
    mode: str = LEMMA
    classify_reduced: bool = False
    threads: int = 1  # validated and echoed in the report; the scan uses one thread
    emit_samples: int | None = None

    def __post_init__(self):
        if self.mode not in (LEMMA, APPENDIX):
            raise ValueError(f"unknown census mode {self.mode!r}")
        # false for NaN, and exact for ints beyond the float range
        if not -math.inf < self.radius < math.inf:
            raise ValueError(f"radius must be finite, got {self.radius}")
        if self.radius <= 0:
            raise ValueError("radius must be positive")
        if self.threads < 1:
            raise ValueError("thread count must be positive")
        if self.emit_samples is not None and self.emit_samples < 0:
            raise ValueError("sample count must be nonnegative")
        if self.lattice.is_exact:
            if self.radius != int(self.radius):
                raise ValueError("preset lattices require an integer radius")
            if self.radius > MAX_EXACT_RADIUS:
                raise OverflowLimitError(
                    f"radius {self.radius} exceeds the int64-safe limit {MAX_EXACT_RADIUS}")
        if self.mode == APPENDIX and self.lattice.mode != GAUSSIAN:
            raise ValueError("appendix mode reproduces the Gaussian reference count "
                             "and requires the Gaussian lattice")


@dataclass
class CensusReport:
    lattice: str
    radius: float
    mode: str
    classify_reduced: bool
    threads: int
    total_tuples_scanned: int
    all_tripods: int
    primitive: int
    reduced: int | None
    nonreduced_primitive: int | None
    index_histogram: dict[int, int]
    angle_tie_count: int
    angle_tie_primitive_count: int
    sector_boundary_count: int
    normalized_constant: float
    reference_constant: float
    heuristic: bool
    elapsed_ms: float
    samples: list[dict] | None = None

    def payload(self) -> dict:
        body = {
            "radius": self.radius,
            "mode": self.mode,
            "classify_reduced": self.classify_reduced,
            "threads": self.threads,
            "counts": {
                "total_tuples_scanned": self.total_tuples_scanned,
                "all_tripods": self.all_tripods,
                "primitive": self.primitive,
                "reduced": self.reduced,
                "nonreduced_primitive": self.nonreduced_primitive,
            },
            "ties": {
                "angle_tie": self.angle_tie_count,
                "angle_tie_primitive": self.angle_tie_primitive_count,
                "sector_boundary": self.sector_boundary_count,
            },
            "index_histogram": {str(k): v for k, v in sorted(self.index_histogram.items())},
            "normalized_constant": self.normalized_constant,
            "reference_constant": self.reference_constant,
            "heuristic": self.heuristic,
            "elapsed_ms": self.elapsed_ms,
        }
        if self.samples is not None:
            body["samples"] = self.samples
        return body


def lattice_points_in_disk(lattice: LatticeSpec, radius: float,
                           basis=((1, 0), (0, 1))) -> np.ndarray:
    """All nonzero points m*v1 + n*v2 with |a + b*tau| <= radius, as an (N,2) array.

    (v1, v2) = `basis` spans a sublattice in lattice coordinates; each row is
    the point's lattice coordinates (a, b), and the rows are in lexicographic
    (m, n) order, so the default basis gives the lattice's own points in
    (a, b) order.  The coefficient box |m| <= r |v2| / covol',
    |n| <= r |v1| / covol' (covol' the sublattice's covolume) holds the disk.
    A box above MAX_DISK_CELLS cells raises OverflowLimitError before anything
    is allocated.  The norm comparison is exact in the preset modes (for any
    radius); general tau uses floats with a tiny inflation.  Rows are int64
    while every norm in the box fits, else Python ints (a large sublattice).
    """
    (a1, b1), (a2, b2) = basis
    covol = abs(a1 * b2 - a2 * b1) * lattice.covolume
    mspan = radius * math.sqrt(lattice._norm(a2, b2)) / covol
    nspan = radius * math.sqrt(lattice._norm(a1, b1)) / covol
    cells = (2 * mspan + 3) * (2 * nspan + 3)
    if not cells <= MAX_DISK_CELLS:  # also catches NaN
        raise OverflowLimitError(f"the disk of radius {radius:g} needs a box of {cells:.3g} "
                                 f"cells, above the feasible bound {MAX_DISK_CELLS:.3g}")
    mmax, nmax = int(mspan) + 1, int(nspan) + 1
    # |a|, |b| bounds over the box; the norm form is below 2 (a^2 + b^2)
    amax = mmax * abs(a1) + nmax * abs(a2)
    bmax = mmax * abs(b1) + nmax * abs(b2)
    dtype = np.int64 if 2 * (amax * amax + bmax * bmax) < 2**63 else object
    rm = np.arange(-mmax, mmax + 1, dtype=dtype)[:, None]
    rn = np.arange(-nmax, nmax + 1, dtype=dtype)[None, :]
    a = rm * a1 + rn * a2
    b = rm * b1 + rn * b2
    r2 = radius * radius if lattice.is_exact else radius * radius * (1 + 1e-12)
    nsq = lattice._norm(a, b)
    keep = (nsq <= r2) & (nsq > 0)
    return np.stack([a[keep], b[keep]], axis=1)


def _sector(lattice: LatticeSpec, a, b, c, d):
    """(sector, on_boundary): arg(u) in [0, 2*pi/3) for the Toricelli point u.

    The sector is half-open: it keeps the ray uy = 0, ux > 0 and drops the ray
    sqrt(3)*ux + uy = 0; `on_boundary` flags u on either ray.  Works on int64
    arrays and on Python ints alike (preset lattices only).
    """
    # u in the coordinates where each lattice's sign test is cheapest (same
    # reason as the length test of _accept_exact)
    if lattice.mode == GAUSSIAN:
        s_uy = _sign_root3_vec(b + d, a - c)
        s_ray = _sign_root3_vec(2 * d - b, a + 0 * d)
        s_ux = _sign_root3_vec(a + c, d - b)
        sector = ((s_uy > 0) & (s_ray > 0)) | ((s_uy == 0) & (s_ux > 0))
        return sector, (s_uy == 0) | (s_ray == 0)
    um = -b + c + d
    un = a + b - c
    sector = ((un > 0) & (um + un > 0)) | ((un == 0) & (um > 0))
    return sector, (un == 0) | (um + un == 0)


def _angles_below_120(nz, nw, nzw, q0):
    """All three angles of (0, z, w) strictly below 2*pi/3 (preset lattices).

    nz, nw, nzw are the squared sides |z|^2, |w|^2, |w - z|^2 and q0 = 2 z.w;
    an angle with a negative dot product is below 2*pi/3 iff 4 dot^2 is below
    the product of its two squared sides.
    """
    qz = 2 * nz - q0
    qw = 2 * nw - q0
    return (((q0 >= 0) | (q0 * q0 < nz * nw)) & ((qz >= 0) | (qz * qz < nz * nzw))
            & ((qw >= 0) | (qw * qw < nw * nzw)))


def _largest_at_origin(nz, nw, q0):
    """The angle of (0, z, w) at 0 strictly the largest: appendix mode's lift.

    That angle faces the side w - z, so it is largest iff |w - z|^2 =
    nz + nw - q0 exceeds both nz and nw.
    """
    return np.minimum(nz, nw) > q0


def _accept_exact(lattice: LatticeSpec, mode, R, a, b, c, d, include_boundary=False):
    """Vectorized exact filters for one z-point against orientation-filtered w-points.

    Returns (accept mask, index array, angle-tie mask, sector-boundary mask).
    `include_boundary` also accepts ell^2 == R^2, which only the Eisenstein
    lattice attains.
    """
    n = a * d - b * c
    nz = lattice._norm(a, b)
    nw = lattice._norm(c, d)
    q0 = lattice._polar(a, b, c, d)
    nzw = nz + nw - q0
    # ell^2 = nz + nw - q0/2 + sqrt(3)*covol*n is irrational on the Gaussian
    # lattice and rational on the Eisenstein one; one general Q(sqrt(3)) sign
    # test for both slows the scan by 7-17%
    if lattice.mode == GAUSSIAN:
        t = R * R - (nz + nw - q0 // 2)
        len_ok = (t > 0) & (t * t > 3 * n * n)
    else:
        l2 = 2 * nz + 2 * nw - q0 + 3 * n
        len_ok = l2 <= 2 * R * R if include_boundary else l2 < 2 * R * R
    angles = len_ok & _angles_below_120(nz, nw, nzw, q0)

    if mode == APPENDIX:
        zeros = np.zeros_like(angles)
        return angles & _largest_at_origin(nz, nw, q0), n, zeros, zeros

    sector, on_boundary = _sector(lattice, a, b, c, d)
    # tie diagnostics: largest angle not unique <=> two side lengths tie for
    # longest (side lengths nw, nz, nzw oppose the angles at z, w, 0)
    longest0 = (nzw >= nz) & (nzw >= nw)
    longestz = (nw >= nzw) & (nw >= nz)
    longestw = (nz >= nzw) & (nz >= nw)
    tie = (longest0 & longestz) | (longest0 & longestw) | (longestz & longestw)
    return angles & sector, n, tie, on_boundary


def _accept_float(lattice: LatticeSpec, mode: str, R: float, a, b, c, d):
    """Float predicates for general-tau lattices (heuristic census).

    A value within an epsilon-scaled margin of a predicate boundary resolves
    as an exact tie would: the strict length and angle tests reject it, and
    the half-open sector keeps the ray uy = 0, ux > 0 and drops the ray
    sqrt(3)*ux + uy = 0.
    """
    s, t = lattice.tau_s, lattice.tau_t
    eps = lattice.epsilon
    n = a * d - b * c
    pos = n > 0
    zx, zy = a + b * s, b * t
    wx, wy = c + d * s, d * t
    dot0 = zx * wx + zy * wy
    nz = zx * zx + zy * zy
    nw = wx * wx + wy * wy
    ok0 = (dot0 >= 0) | (4 * dot0 * dot0 < (1 - eps) * nz * nw)
    ex, ey = wx - zx, wy - zy
    nzw = ex * ex + ey * ey
    dotz = nz - dot0
    dotw = nw - dot0
    okz = (dotz >= 0) | (4 * dotz * dotz < (1 - eps) * nz * nzw)
    okw = (dotw >= 0) | (4 * dotw * dotw < (1 - eps) * nw * nzw)
    c60, s60 = 0.5, math.sqrt(3.0) / 2.0
    ux = c60 * zx - s60 * zy + c60 * wx + s60 * wy
    uy = s60 * zx + c60 * zy + c60 * wy - s60 * wx
    len_ok = ux * ux + uy * uy < (1 - eps) * R * R
    tol = eps * R
    on_axis = np.abs(uy) <= tol
    sector = ((uy > tol) & (math.sqrt(3.0) * ux + uy > tol)) | (on_axis & (ux > 0))
    accept = pos & ok0 & okz & okw & len_ok & sector
    zeros = np.zeros_like(accept)
    return accept, n, zeros, zeros


def _scan(lattice: LatticeSpec, mode: str, radius, pts: np.ndarray, include_boundary=False):
    """Yield (a, b, c, d, n, tie, boundary) per z-point of `pts` with a tripod.

    c, d, n are the accepted w-points and their indices in scan order; tie
    and boundary flag the accepted tuples with an angle tie or on the sector
    boundary.
    """
    R = int(radius) if lattice.is_exact else radius
    c_all = pts[:, 0]
    d_all = pts[:, 1]
    for a, b in pts.tolist():
        if lattice.is_exact:
            pos = a * d_all - b * c_all > 0
            c = c_all[pos]
            d = d_all[pos]
            accept, n, tie, boundary = _accept_exact(lattice, mode, R, a, b, c, d,
                                                     include_boundary)
        else:
            c = c_all
            d = d_all
            accept, n, tie, boundary = _accept_float(lattice, mode, R, a, b, c, d)
        idx = np.flatnonzero(accept)
        if len(idx):
            yield a, b, c[idx], d[idx], n[idx], tie[idx], boundary[idx]


def _nonreduced_mask(lattice: LatticeSpec, a, b, c, d, n, prim):
    """Nonreduced flags among accepted tuples (exact preset lattices).

    Eisenstein: the three legs meet at angles 2*pi/3, so their directions are
    unit multiples of u = (-b + c + d, a + b - c) in lattice coordinates, and
    each carries the lattice points of its line at spacing ell/g, where g is
    the content of u (a unit keeps the content).  Leg i runs from a lattice
    vertex, so it holds a lattice point, interior or at the junction, iff
    ell/g <= ell_i.  With ell_i/ell = t_i/(2 ell^2) and the numerators
    t = q0 + n, 2nz - q0 + n, 2nw - q0 + n (from 0, z, w), a tuple is
    nonreduced iff g * max(t) >= 2 ell^2 = 2nz + 2nw - q0 + 3n.  Equality
    puts the junction on a lattice point; there the lattice point is on every
    leg, so the maximum also decides the junction.  The products stay small:
    g^2 <= N(u) = ell^2 and t < 2 ell^2, so g * t < 2 R^3.

    Gaussian: with x, y the other two vertices relative to a leg's vertex V,
    the leg's line meets Z[i] only if |x| = |y|.  It then runs along
    s = x + y = z + w - 3V with length (|s| - |x - y|/sqrt(3))/2, so its first
    lattice point s/h (h = content of s) lies on it, junction included, iff
    h > 2 and 3(h-2)^2 |s|^2 >= h^2 |x - y|^2; there |s|, h <= 2R, so the
    products stay below 48 R^4.  The junction is never a lattice point: all
    three legs would be isosceles, the triangle equilateral; the >= covers it.

    Both are pure integer tests.  General tau: the float classifier decides
    within epsilon (heuristic).
    """
    if lattice.mode == GENERAL:
        out = np.zeros_like(prim)
        for k in np.nonzero(prim)[0]:
            flags = geometry.classify_heuristic(lattice, a, b, int(c[k]), int(d[k]))
            out[k] = not flags.reduced
        return out
    nz = lattice._norm(a, b)
    nw = lattice._norm(c, d)
    q0 = lattice._polar(a, b, c, d)
    # the two lattices need different mathematics (see above)
    if lattice.mode == EISENSTEIN:
        g = np.gcd(np.abs(-b + c + d), np.abs(a + b - c))
        t = np.maximum(q0, np.maximum(2 * nz - q0, 2 * nw - q0)) + n
        return prim & (g * t >= 2 * nz + 2 * nw - q0 + 3 * n)
    zero = np.zeros_like(c)
    out = np.zeros_like(prim)
    # per leg: the screen |x| = |y|, the vertex V and |x - y|^2
    for screen, vx, vy, side in ((nz == nw, zero, zero, nz + nw - q0),
                                 (nw == q0, zero + a, zero + b, nw),
                                 (nz == q0, c, d, zero + nz)):
        k = np.flatnonzero(prim & screen)
        sx = a + c[k] - 3 * vx[k]
        sy = b + d[k] - 3 * vy[k]
        h = np.gcd(np.abs(sx), np.abs(sy))
        out[k] |= (h > 2) & (3 * (h - 2) * (h - 2) * (sx * sx + sy * sy) >= h * h * side[k])
    return out


def census(config: CensusConfig) -> CensusReport:
    """Run the census described by `config` in one single-threaded scan."""
    t0 = time.perf_counter()
    lattice = config.lattice
    pts = lattice_points_in_disk(lattice, config.radius)
    all_tripods = primitive = reduced = nonreduced = 0
    angle_ties = angle_ties_primitive = sector_boundary = 0
    hist = np.zeros(1, dtype=np.int64)
    samples = None if config.emit_samples is None else []
    for a, b, c, d, n, tie, boundary in _scan(lattice, config.mode, config.radius, pts):
        all_tripods += len(c)
        angle_ties += int(np.count_nonzero(tie))
        sector_boundary += int(np.count_nonzero(boundary))
        h = np.bincount(n)
        if len(h) > len(hist):
            hist = np.pad(hist, (0, len(h) - len(hist)))
        hist[: len(h)] += h
        prim = np.gcd(math.gcd(a, b), np.gcd(c, d)) == 1
        n_prim = int(np.count_nonzero(prim))
        primitive += n_prim
        angle_ties_primitive += int(np.count_nonzero(tie & prim))
        if config.classify_reduced and n_prim:
            n_nonred = int(np.count_nonzero(_nonreduced_mask(lattice, a, b, c, d, n, prim)))
            nonreduced += n_nonred
            reduced += n_prim - n_nonred
        if samples is not None and len(samples) < config.emit_samples:
            for k in range(min(config.emit_samples - len(samples), len(c))):
                samples.append({"coords": [a, b, int(c[k]), int(d[k])], "index": int(n[k]),
                                "primitive": bool(prim[k])})
    elapsed = (time.perf_counter() - t0) * 1000.0
    return CensusReport(
        lattice=lattice.describe(),
        radius=config.radius,
        mode=config.mode,
        classify_reduced=config.classify_reduced,
        threads=config.threads,
        total_tuples_scanned=len(pts) * len(pts),
        all_tripods=all_tripods,
        primitive=primitive,
        reduced=reduced if config.classify_reduced else None,
        nonreduced_primitive=nonreduced if config.classify_reduced else None,
        index_histogram={int(i): int(v) for i, v in enumerate(hist) if v > 0},
        angle_tie_count=angle_ties,
        angle_tie_primitive_count=angle_ties_primitive,
        sector_boundary_count=sector_boundary,
        normalized_constant=primitive / config.radius ** 4,
        reference_constant=analytics.reference_constants()["main_constant"],
        heuristic=not lattice.is_exact,
        elapsed_ms=elapsed,
        samples=samples,
    )


def enumerate_tripods(lattice: LatticeSpec, radius: float, mode: str = LEMMA,
                      include_boundary: bool = False) -> np.ndarray:
    """All accepted quadruples (a, b, c, d) as an (N, 4) int64 array.

    `include_boundary` admits tripods with ell^2 exactly R^2 (possible only
    on the Eisenstein lattice, where ell^2 is an integer); the census proper
    uses the strict inequality.
    """
    if not lattice.is_exact:
        raise ValueError("enumerate_tripods requires a preset lattice")
    CensusConfig(lattice, radius, mode)  # the census's radius and mode checks
    pts = lattice_points_in_disk(lattice, radius)
    rows = [np.column_stack([np.full(len(c), a), np.full(len(c), b), c, d])
            for a, b, c, d, *_ in _scan(lattice, mode, radius, pts, include_boundary)]
    return np.concatenate(rows) if rows else np.empty((0, 4), dtype=np.int64)


def convergence_scan(lattice: LatticeSpec, radii: list[float], mode: str = LEMMA) -> list[dict]:
    """One census per radius with the covolume-normalized error column.

    The reference density 15*sqrt(3)/(4*pi^3) applies to unit-covolume
    lattices; raw lengths scale by covolume^(-1/2), so the comparable ratio
    is primitive * covolume^2 / R^4.
    """
    if list(radii) != sorted(radii):
        raise ValueError("radii must be increasing")
    ref = analytics.reference_constants()["main_constant"]
    covol = lattice.covolume
    rows = []
    for r in radii:
        rep = census(CensusConfig(lattice=lattice, radius=r, mode=mode))
        normalized = rep.primitive * covol ** 2 / r ** 4
        rows.append({
            "R": r,
            "total": rep.all_tripods,
            "primitive": rep.primitive,
            "primitive_over_R4": rep.primitive / r ** 4,
            "normalized_ratio": normalized,
            "error": abs(normalized - ref),
        })
    return rows


def nonreduced_census(lattice: LatticeSpec, radius: float, threads: int = 1,
                      mode: str = LEMMA) -> dict:
    """Census with reducedness classification; exact lattices only."""
    if not lattice.is_exact:
        raise ValueError("nonreduced census requires an exact preset lattice")
    rep = census(CensusConfig(lattice=lattice, radius=radius, mode=mode,
                              classify_reduced=True, threads=threads))
    ratio = rep.nonreduced_primitive / radius ** 4
    out = {
        "radius": radius,
        "counts": {
            "all_tripods": rep.all_tripods,
            "primitive": rep.primitive,
            "reduced": rep.reduced,
            "nonreduced_primitive": rep.nonreduced_primitive,
        },
        "nonreduced_over_R4": ratio,
        "all_over_R4": rep.all_tripods / radius ** 4,
        "elapsed_ms": rep.elapsed_ms,
    }
    if lattice.mode == EISENSTEIN:  # the paper states these constants for this lattice
        consts = analytics.reference_constants()
        out["constants"] = {k: consts[k] for k in
                            ("nonreduced_bound", "c1", "c2", "eisenstein_total")}
    return out


def random_lattice_experiment(sample_count: int, radius: float, seed: int) -> dict:
    """Heuristic survey of nonreduced counts over random general-tau lattices.

    tau = s + it is sampled uniformly from s in [0, 1), t in [0.5, 1.5];
    each sample runs a general-mode census with heuristic reducedness.
    Deterministic for a fixed seed (PCG64).
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    taus = rng.random((sample_count, 2))
    counts = []
    for k in range(sample_count):
        s = float(taus[k, 0])
        t = 0.5 + float(taus[k, 1])
        lat = LatticeSpec(GENERAL, s, t)
        rep = census(CensusConfig(lattice=lat, radius=radius, classify_reduced=True))
        counts.append(int(rep.nonreduced_primitive))
    histogram: dict[int, int] = {}
    for v in counts:
        histogram[v] = histogram.get(v, 0) + 1
    return {
        "samples": sample_count,
        "radius": radius,
        "seed": seed,
        "histogram": {str(k): v for k, v in sorted(histogram.items())},
        "zero_fraction": sum(1 for v in counts if v == 0) / max(1, sample_count),
        "heuristic": True,
    }
