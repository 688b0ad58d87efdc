"""Exact computation of Veronese normal-bundle presentations, their
restrictions to rational curves, and splitting types on the projective line."""

from .bundles import (
    DualIdentityReport,
    KBundleStats,
    VeroneseContext,
    VeroneseDegreeError,
    delta_matrix,
    euler_presentation,
    k_bundle_stats,
    normal_presentation,
    restriction_type,
    theta_matrix,
    verify_dual_identity,
    xi_matrix,
)
from .chow import (
    BundleStats,
    ChowClass,
    GMReport,
    HilbertPoly,
    chern_normal,
    gm_check,
    hilbert_poly,
    normal_stats,
)
from .curves import random_line, rnc, standard_line
from .gradedmap import BasePointError, CurveParam, GradedMap, TwistMismatchError
from .linalg import QMatrix, Rat
from .p1split import (
    NotInjectiveError,
    NotLocallyFreeError,
    SplittingType,
    h0_direct,
    splitting_type,
)
from .poly import HomPoly, monomials, parse_poly, render_poly
from .symlin import LinearSES, check_commute, quotient_map, random_ses, sym_power

__version__ = "0.1.0"

__all__ = [
    "BasePointError",
    "BundleStats",
    "ChowClass",
    "CurveParam",
    "DualIdentityReport",
    "GMReport",
    "GradedMap",
    "HilbertPoly",
    "HomPoly",
    "KBundleStats",
    "LinearSES",
    "NotInjectiveError",
    "NotLocallyFreeError",
    "QMatrix",
    "Rat",
    "SplittingType",
    "TwistMismatchError",
    "VeroneseContext",
    "VeroneseDegreeError",
    "chern_normal",
    "check_commute",
    "delta_matrix",
    "euler_presentation",
    "gm_check",
    "h0_direct",
    "hilbert_poly",
    "k_bundle_stats",
    "monomials",
    "normal_presentation",
    "normal_stats",
    "parse_poly",
    "quotient_map",
    "random_line",
    "random_ses",
    "render_poly",
    "restriction_type",
    "rnc",
    "splitting_type",
    "standard_line",
    "sym_power",
    "theta_matrix",
    "verify_dual_identity",
    "xi_matrix",
]
