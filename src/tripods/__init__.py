"""Exact-arithmetic census of immersed tripods on flat tori.

A tripod is an immersed three-legged graph on the torus C/(Z + Z*tau) whose
legs meet at pairwise angles 2*pi/3 at an interior junction point, with all
endpoints at the lattice origin.  This package enumerates them by length,
classifies primitivity and reducedness with exact Q(sqrt(3)) arithmetic,
verifies the self-intersection and region counts by direct geometric
computation, and checks the asymptotic density constants by census and
Monte Carlo.
"""

from .analytics import (
    VolumeEstimate,
    expected_primitive_density,
    expected_total_density,
    mc_omega_volume,
    omega_membership,
    reference_constants,
    slice_property_check,
)
from .census import (
    APPENDIX,
    LEMMA,
    CensusConfig,
    CensusReport,
    OverflowLimitError,
    census,
    convergence_scan,
    enumerate_tripods,
    nonreduced_census,
    random_lattice_experiment,
)
from .geometry import (
    InvalidTripodError,
    Tripod,
    TripodFlags,
    angle_condition,
    classify,
    fermat_point,
    toricelli_point,
    tripod_length_sq,
    tripod_volume_and_index,
)
from .lattice import (
    LatticeSpec,
    LatticeVector,
    eisenstein_lattice,
    gaussian_lattice,
    general_lattice,
    is_primitive_quadruple,
    parse_lattice,
)
from .quadratic import QuadraticNumber, Vec2, sign_root3
from .topology import ImmersionReport, fiber_tripods, region_count, self_intersections

__version__ = "0.1.0"

__all__ = [
    "APPENDIX",
    "CensusConfig",
    "CensusReport",
    "ImmersionReport",
    "InvalidTripodError",
    "LEMMA",
    "LatticeSpec",
    "LatticeVector",
    "OverflowLimitError",
    "QuadraticNumber",
    "Tripod",
    "TripodFlags",
    "Vec2",
    "VolumeEstimate",
    "angle_condition",
    "census",
    "classify",
    "convergence_scan",
    "eisenstein_lattice",
    "enumerate_tripods",
    "expected_primitive_density",
    "expected_total_density",
    "fermat_point",
    "fiber_tripods",
    "gaussian_lattice",
    "general_lattice",
    "is_primitive_quadruple",
    "mc_omega_volume",
    "nonreduced_census",
    "omega_membership",
    "parse_lattice",
    "random_lattice_experiment",
    "reference_constants",
    "region_count",
    "self_intersections",
    "sign_root3",
    "slice_property_check",
    "toricelli_point",
    "tripod_length_sq",
    "tripod_volume_and_index",
]
