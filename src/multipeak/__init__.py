"""Numerical toolkit for concentrating solutions of subcritical semilinear
elliptic equations arising from product-manifold reductions.

Capabilities: radial ground states with certified exponential tails,
second-order curvature correction profiles, dimensional constants and
moment-reduced integrals, curvature of round and warped spheres, and
desk-scale verification of multi-peak energy expansions and residual
scalings on model geometries.
"""

from .constants import (
    DimensionalConstants,
    base_interaction,
    beta_table,
    compute_constants,
    conformal_constant,
    gamma,
    product_exponent,
    table_csv,
)
from .correction import (
    CorrectionProfiles,
    correction_profiles,
    verify_L0_identities,
)
from .energy import (
    PeakAnsatz,
    PeakConfig,
    admissible,
    build_W,
    build_Y,
    energy_J,
    energy_coefficient_fit,
    expansion_compare,
    norm_eps,
    one_peak_ladder,
    residual_norm,
    residual_slopes,
)
from .geometry import (
    CurvaturePoint,
    FlatSpace,
    NoInteriorCritical,
    RoundSphere,
    WarpedSphere,
    phi,
    scan_phi,
)
from .groundstate import (
    GroundState,
    NoBracket,
    SubcriticalViolation,
    TailTooShort,
    identity_report,
    solve_ground_state,
)

__all__ = [
    "CorrectionProfiles",
    "CurvaturePoint",
    "DimensionalConstants",
    "FlatSpace",
    "GroundState",
    "NoBracket",
    "NoInteriorCritical",
    "PeakAnsatz",
    "PeakConfig",
    "RoundSphere",
    "SubcriticalViolation",
    "TailTooShort",
    "WarpedSphere",
    "admissible",
    "base_interaction",
    "beta_table",
    "build_W",
    "build_Y",
    "compute_constants",
    "conformal_constant",
    "correction_profiles",
    "energy_J",
    "energy_coefficient_fit",
    "expansion_compare",
    "gamma",
    "identity_report",
    "norm_eps",
    "one_peak_ladder",
    "phi",
    "product_exponent",
    "residual_norm",
    "residual_slopes",
    "scan_phi",
    "solve_ground_state",
    "table_csv",
    "verify_L0_identities",
]

__version__ = "0.1.0"
