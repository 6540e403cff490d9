"""Torus lattices Z + Z*tau: embeddings, coordinates, primitivity.

The two preset lattices (Gaussian tau = i, Eisenstein tau = e^{i*pi/3}) carry
exact Q(sqrt(3)) embeddings and their inverse, the lattice coordinates in
which every exact predicate downstream is decided.  A general tau = s + it is
supported with float coordinates and an epsilon tolerance, and a float
segment query for it; results that depend on it are flagged heuristic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .quadratic import QuadraticNumber, Vec2

GAUSSIAN = "gaussian"
EISENSTEIN = "eisenstein"
GENERAL = "general"

_HALF = Fraction(1, 2)
_TWO_ROOT3_OVER_3 = QuadraticNumber(0, Fraction(2, 3))


@dataclass(frozen=True)
class LatticeSpec:
    """Lattice Z + Z*tau with Im(tau) > 0.

    Preset modes pin tau exactly (Gaussian: tau = i; Eisenstein:
    tau = e^{i*pi/3} = 1/2 + i*sqrt(3)/2) and ignore `epsilon`; general mode
    carries float tau and uses `epsilon` for heuristic collinearity tests.
    """

    mode: str
    tau_s: float = 0.0
    tau_t: float = 1.0
    epsilon: float = 1e-9

    def __post_init__(self):
        if self.mode not in (GAUSSIAN, EISENSTEIN, GENERAL):
            raise ValueError(f"unknown lattice mode {self.mode!r}")
        if not (math.isfinite(self.tau_s) and math.isfinite(self.tau_t)):
            raise ValueError(f"tau must be finite, got {self.tau_s},{self.tau_t}")
        if self.tau_t <= 0:
            raise ValueError("Im(tau) must be positive")

    @property
    def is_exact(self) -> bool:
        return self.mode in (GAUSSIAN, EISENSTEIN)

    @property
    def covolume(self) -> float:
        """Area of the fundamental domain for the basis {1, tau} (= Im tau)."""
        return self.tau_t

    def covolume_exact(self) -> QuadraticNumber:
        if self.mode == GAUSSIAN:
            return QuadraticNumber(1)
        if self.mode == EISENSTEIN:
            return QuadraticNumber(0, _HALF)
        raise ValueError("exact covolume only available in preset modes")

    # -- embeddings -------------------------------------------------------

    def embed(self, a: int, b: int) -> Vec2:
        """Exact embedding of the lattice point a + b*tau (preset modes)."""
        if self.mode == GAUSSIAN:
            return Vec2(QuadraticNumber(a), QuadraticNumber(b))
        if self.mode == EISENSTEIN:
            return Vec2(QuadraticNumber(Fraction(2 * a + b, 2)),
                        QuadraticNumber(0, Fraction(b, 2)))
        raise ValueError("exact embedding only available in preset modes")

    def embed_float(self, a, b):
        return a + b * self.tau_s, b * self.tau_t

    def to_lattice_coords(self, point: Vec2) -> tuple[QuadraticNumber, QuadraticNumber]:
        """Inverse basis map: exact (a, b) coordinates of an embedded point."""
        if self.mode == GAUSSIAN:
            return point.x, point.y
        if self.mode == EISENSTEIN:
            # y = b*sqrt(3)/2  =>  b = (2/3)*sqrt(3)*y ; a = x - b/2
            b = point.y * _TWO_ROOT3_OVER_3
            return point.x - b * _HALF, b
        raise ValueError("exact coordinates only available in preset modes")

    def to_lattice_coords_float(self, x: float, y: float) -> tuple[float, float]:
        b = y / self.tau_t
        return x - b * self.tau_s, b

    # -- integer arithmetic, on Python ints and int64 arrays alike ----------
    # (underscore names: these run once per scanned z-point)

    def _norm(self, a, b):
        """Norm form |a + b*tau|^2; an integer in the preset modes."""
        if self.mode == GAUSSIAN:
            return a * a + b * b
        if self.mode == EISENSTEIN:
            return a * a + a * b + b * b
        x = a + b * self.tau_s
        y = b * self.tau_t
        return x * x + y * y

    def _polar(self, a, b, c, d):
        """Polarization norm(z + w) - norm(z) - norm(w) = 2 Re(z w~) (preset modes)."""
        if self.mode == GAUSSIAN:
            return 2 * (a * c + b * d)
        if self.mode == EISENSTEIN:
            return 2 * (a * c + b * d) + a * d + b * c
        raise ValueError("integer polarization only available in preset modes")

    def describe(self) -> str:
        if self.mode == GENERAL:
            return f"tau={self.tau_s:g},{self.tau_t:g}"
        return self.mode


def gaussian_lattice() -> LatticeSpec:
    return LatticeSpec(GAUSSIAN, 0.0, 1.0)


def eisenstein_lattice() -> LatticeSpec:
    return LatticeSpec(EISENSTEIN, 0.5, math.sqrt(3.0) / 2.0)


def general_lattice(s: float, t: float, epsilon: float = 1e-9) -> LatticeSpec:
    return LatticeSpec(GENERAL, float(s), float(t), epsilon)


def parse_lattice(text: str) -> LatticeSpec:
    """Parse the shared lattice selection grammar.

    Accepted forms: ``gaussian``, ``eisenstein``, ``tau=<s>,<t>``.
    """
    text = text.strip().lower()
    if text == GAUSSIAN:
        return gaussian_lattice()
    if text == EISENSTEIN:
        return eisenstein_lattice()
    if text.startswith("tau="):
        parts = text[4:].split(",")
        if len(parts) != 2:
            raise ValueError(f"expected tau=<s>,<t>, got {text!r}")
        return general_lattice(float(parts[0]), float(parts[1]))
    raise ValueError(f"unknown lattice {text!r} (use gaussian, eisenstein or tau=<s>,<t>)")


@dataclass(frozen=True)
class LatticeVector:
    """Lattice point with coordinates (a, b) in the basis {1, tau}."""

    a: int
    b: int


def is_primitive_quadruple(a: int, b: int, c: int, d: int) -> bool:
    """True iff gcd(a, b, c, d) = 1 (with gcd(0, x) = |x|)."""
    if a == 0 and b == 0 and c == 0 and d == 0:
        raise ValueError("all-zero quadruple has no gcd")
    return gcd(gcd(abs(a), abs(b)), gcd(abs(c), abs(d))) == 1


def heuristic_points_on_open_segment(px: float, py: float, qx: float, qy: float,
                                     lattice: LatticeSpec) -> list[LatticeVector]:
    """Float segment query for general-tau lattices (epsilon collinearity).

    Candidates come from the lattice-coordinate bounding box; a point counts
    as on the open segment when its distance to the segment is below the
    lattice epsilon and its projection parameter is strictly inside (0, 1)
    by more than an epsilon-scaled margin.
    """
    eps = lattice.epsilon
    pa, pb = lattice.to_lattice_coords_float(px, py)
    qa, qb = lattice.to_lattice_coords_float(qx, qy)
    dx, dy = qx - px, qy - py
    seg_len_sq = dx * dx + dy * dy
    if seg_len_sq == 0:
        raise ValueError("segment endpoints must be distinct")
    out = []
    margin = eps / math.sqrt(seg_len_sq)
    for m in range(math.floor(min(pa, qa)) - 1, math.ceil(max(pa, qa)) + 2):
        for n in range(math.floor(min(pb, qb)) - 1, math.ceil(max(pb, qb)) + 2):
            x, y = lattice.embed_float(m, n)
            t = ((x - px) * dx + (y - py) * dy) / seg_len_sq
            if not (margin < t < 1 - margin):
                continue
            ex, ey = px + t * dx - x, py + t * dy - y
            if math.hypot(ex, ey) < eps:
                out.append(LatticeVector(m, n))
    return out
