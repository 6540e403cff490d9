"""Closed-form constants and stochastic verification of the volume picture.

The census asymptotics rest on the volume of the admissible-endpoint region

    Omega = { (z, w) : arg z < arg w < pi + arg z,
                       all angles of (0, z, w) strictly < 2*pi/3,
                       |u| <= 1,  arg u in [0, 2*pi/3) },

whose closed-form volume is sqrt(3)*pi/24.  This module estimates it by
seeded Monte Carlo over the unit bidisk and verifies the slice structure:
for fixed u the admissible z fill the triangle u * (0, 1, e^{-i*pi/3}) of
area (sqrt(3)/4)|u|^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

ROT60 = complex(0.5, math.sqrt(3.0) / 2.0)
ROT60C = ROT60.conjugate()

# samples are drawn per fixed-size block with a PCG64 substream each, so the
# estimate is reproducible for any worker configuration
_BLOCK = 1 << 17


def reference_constants() -> dict[str, float]:
    """Named closed-form constants, each evaluated at full float precision."""
    zeta4 = math.pi ** 4 / 90
    return {
        "main_constant": 15 * math.sqrt(3.0) / (4 * math.pi ** 3),
        "omega_volume": math.sqrt(3.0) * math.pi / 24,
        "zeta4_inv": 90 / math.pi ** 4,
        "eisenstein_total": math.pi / 12,
        "nonreduced_bound": (1 - 6 / math.pi ** 2) * math.pi / 16,
        "c1": (1 - 6 / math.pi ** 2) * 3 / 4,
        "c2": 90 / math.pi ** 4,
    }


def expected_total_density(covolume: float) -> float:
    """Asymptotic all-tripod count over R^4 for a lattice of given covolume.

    Pairs (z, w) range over the product lattice, so the density is
    vol(Omega) / covolume^2.
    """
    return math.sqrt(3.0) * math.pi / 24 / covolume ** 2


def expected_primitive_density(covolume: float) -> float:
    return expected_total_density(covolume) * 90 / math.pi ** 4


# The length bound |u| <= 1 is closed and the sector includes arg(u) = 0, so
# boundary-exact inputs must be kept; the collar absorbs the float rounding
# of the rotation arithmetic on that measure-zero boundary.
_BOUNDARY_COLLAR = 1e-12


def omega_membership(z: complex, w: complex) -> bool:
    """Endpoint pair admissibility for the unit-length canonical region."""
    return bool(_membership_mask(np.array([z]), np.array([w]))[0])


def _in_sector(u: complex) -> bool:
    if abs(u.imag) <= _BOUNDARY_COLLAR * max(1.0, abs(u.real)):
        return u.real > 0
    if u.imag > 0:
        return math.sqrt(3.0) * u.real + u.imag > 0
    return False


@dataclass
class VolumeEstimate:
    estimate: float
    standard_error: float
    samples: int
    seed: int
    reference: float = field(default=math.sqrt(3.0) * math.pi / 24)
    hit_fraction: float = 0.0

    def payload(self) -> dict:
        return {
            "estimate": self.estimate,
            "standard_error": self.standard_error,
            "samples": self.samples,
            "seed": self.seed,
            "reference": self.reference,
            "hit_fraction": self.hit_fraction,
        }


def _membership_mask(z: np.ndarray, w: np.ndarray) -> np.ndarray:
    cr = z.real * w.imag - z.imag * w.real
    ok = cr > 0
    for a_, b_ in ((z, w), (-z, w - z), (-w, z - w)):
        d = a_.real * b_.real + a_.imag * b_.imag
        na = a_.real ** 2 + a_.imag ** 2
        nb = b_.real ** 2 + b_.imag ** 2
        ok &= (d >= 0) | (4 * d * d < na * nb)
    u = ROT60 * z + ROT60C * w
    ok &= (u.real ** 2 + u.imag ** 2) <= 1.0 + 3 * _BOUNDARY_COLLAR
    on_axis = np.abs(u.imag) <= _BOUNDARY_COLLAR * np.maximum(1.0, np.abs(u.real))
    ok &= np.where(on_axis, u.real > 0,
                   (u.imag > 0) & (math.sqrt(3.0) * u.real + u.imag > 0))
    return ok


def _disk_points(rng: np.random.Generator, count: int) -> np.ndarray:
    uni = rng.random((count, 2))
    r = np.sqrt(uni[:, 0])
    th = 2 * math.pi * uni[:, 1]
    return r * np.cos(th) + 1j * r * np.sin(th)


def mc_omega_volume(samples: int, seed: int) -> VolumeEstimate:
    """Monte Carlo estimate of vol(Omega) from the unit bidisk.

    Every admissible endpoint lies within distance ell <= 1 of the origin,
    so Omega sits inside disk x disk of volume pi^2; the estimate is
    pi^2 times the hit fraction.  PCG64 substreams per sample block keep the
    result bit-identical for a fixed seed.
    """
    if samples < 10_000:
        raise ValueError("need at least 1e4 samples")
    hits = 0
    done = 0
    block_index = 0
    while done < samples:
        m = min(_BLOCK, samples - done)
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, block_index])))
        z = _disk_points(rng, m)
        w = _disk_points(rng, m)
        hits += int(np.count_nonzero(_membership_mask(z, w)))
        done += m
        block_index += 1
    p_hat = hits / samples
    bounding = math.pi ** 2
    return VolumeEstimate(
        estimate=bounding * p_hat,
        standard_error=bounding * math.sqrt(p_hat * (1 - p_hat) / samples),
        samples=samples,
        seed=seed,
        hit_fraction=p_hat,
    )


# -- slice structure ---------------------------------------------------------


def partner_endpoint(z: complex, u: complex) -> complex:
    """w with Toricelli point u and first endpoint z: w = e^{-i*pi/3} z + e^{i*pi/3} u."""
    return ROT60C * z + ROT60 * u


def to_zu_coords(z: complex, w: complex) -> tuple[complex, complex]:
    return z, ROT60 * z + ROT60C * w


def from_zu_coords(z: complex, u: complex) -> tuple[complex, complex]:
    return z, partner_endpoint(z, u)


def _triangle_vertices(u: complex) -> tuple[complex, complex, complex]:
    return 0j, u, u * ROT60C


def _point_segment_distance(p: complex, a_: complex, b_: complex) -> float:
    ab = b_ - a_
    denom = abs(ab) ** 2
    if denom == 0:
        return abs(p - a_)
    t = ((p - a_).real * ab.real + (p - a_).imag * ab.imag) / denom
    t = min(1.0, max(0.0, t))
    return abs(p - (a_ + t * ab))


def _in_triangle(p: complex, v0: complex, v1: complex, v2: complex) -> bool:
    def cr(o, a_, b_):
        return (a_.real - o.real) * (b_.imag - o.imag) - (a_.imag - o.imag) * (b_.real - o.real)
    s1 = cr(v0, v1, p)
    s2 = cr(v1, v2, p)
    s3 = cr(v2, v0, p)
    return (s1 >= 0 and s2 >= 0 and s3 >= 0) or (s1 <= 0 and s2 <= 0 and s3 <= 0)


@dataclass
class SliceCheckResult:
    u: complex
    trials: int
    seed: int
    tested: int
    counterexamples: list[tuple[float, float]]
    area_estimate: float
    area_expected: float
    area_standard_error: float

    @property
    def passed(self) -> bool:
        return not self.counterexamples and (
            self.area_expected == 0.0
            or abs(self.area_estimate - self.area_expected) <= 4 * self.area_standard_error + 1e-12
        )

    def payload(self) -> dict:
        return {
            "u": [self.u.real, self.u.imag],
            "trials": self.trials,
            "seed": self.seed,
            "tested": self.tested,
            "counterexamples": [list(c) for c in self.counterexamples],
            "area_estimate": self.area_estimate,
            "area_expected": self.area_expected,
            "area_standard_error": self.area_standard_error,
            "passed": self.passed,
        }


def slice_property_check(u: complex, trials: int, seed: int,
                         boundary_margin: float = 1e-9) -> SliceCheckResult:
    """Verify the fixed-u slice of Omega is the triangle u*(0, 1, e^{-i*pi/3}).

    Random z are drawn from the bounding square; membership via the full
    endpoint-pair predicate must agree with triangle membership away from a
    1e-9 boundary margin (the discrepancy set is the measure-zero boundary).
    The slice area is estimated from the same sample and compared with
    (sqrt(3)/4)|u|^2.
    """
    if abs(u) > 1 + 1e-12 or not (_in_sector(u) or u == 0):
        raise ValueError("u must satisfy |u| <= 1 and arg(u) in [0, 2*pi/3)")
    rng = np.random.Generator(np.random.PCG64(seed))
    if u == 0:
        return SliceCheckResult(u, trials, seed, 0, [], 0.0,
                                0.0, 0.0)
    half = abs(u)
    pts = rng.random((trials, 2)) * 2 * half - half
    zs = pts[:, 0] + 1j * pts[:, 1]
    members = _membership_mask(zs, partner_endpoint(zs, u))
    v0, v1, v2 = _triangle_vertices(u)
    counterexamples: list[tuple[float, float]] = []
    tested = 0
    hits = 0
    for k in range(trials):
        z = complex(pts[k, 0], pts[k, 1])
        dist = min(_point_segment_distance(z, v0, v1),
                   _point_segment_distance(z, v1, v2),
                   _point_segment_distance(z, v2, v0))
        if dist < boundary_margin:
            continue
        tested += 1
        inside = _in_triangle(z, v0, v1, v2)
        if inside:
            hits += 1
        if inside != members[k] and len(counterexamples) < 16:
            counterexamples.append((z.real, z.imag))
    box_area = (2 * half) ** 2
    p_hat = hits / max(1, tested)
    area = box_area * p_hat
    se = box_area * math.sqrt(p_hat * (1 - p_hat) / max(1, tested))
    return SliceCheckResult(u, trials, seed, tested, counterexamples,
                            area, math.sqrt(3.0) / 4 * abs(u) ** 2, se)
