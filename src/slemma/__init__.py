"""Numerical toolkit for copositivity certificates of generalized
homogeneous polynomials, joint image-set geometry, and switched-system
stabilization via convex combinations.

Everything is deterministic under a fixed seed: sphere sampling uses a
uniform angular grid in two variables and seeded low-discrepancy points
in higher dimension, and every certificate is re-verified on an
independent sample set before it is returned.
"""

from .homog_core import (
    DEFAULT_SEED,
    Dilation,
    GeneralizedPolynomial,
    Parity,
    UsageError,
    sphere_samples,
    theta_grid,
)
from .image_analysis import (
    CopositivityReport,
    DegenerateImageError,
    ImageClass,
    ImageSummary,
    SampledPair,
    ShsConditionReport,
    ZeroMargin,
    mixing_curve,
    zero_margin,
)
from .problems import Problem, ProblemError, load_problem
from .s_lemma import (
    MultiplierCertificate,
    MultiplierFailure,
    ReasonCode,
    find_nhs_multiplier,
    find_nonstrict_multiplier,
    find_strict_multiplier,
    is_copositive,
    shs_condition,
)
from .stp_poly import CoeffVecPolynomial, homogenize, index_to_multidegree
from .switched_systems import (
    ConvexCombination,
    DivergenceError,
    LfhdCandidate,
    LfhdReport,
    ScanResult,
    SwitchedSystem,
    SynthesisResult,
    Trajectory,
    check_lfhd,
    derivative_along,
    linear_combination_eigencheck,
    linear_matrix,
    scan_combinations,
    simulate_min_switching,
    synthesize_combination_n2,
)

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_SEED",
    "Dilation",
    "GeneralizedPolynomial",
    "Parity",
    "UsageError",
    "sphere_samples",
    "theta_grid",
    "DegenerateImageError",
    "ImageClass",
    "ImageSummary",
    "SampledPair",
    "ZeroMargin",
    "mixing_curve",
    "zero_margin",
    "Problem",
    "ProblemError",
    "load_problem",
    "CopositivityReport",
    "MultiplierCertificate",
    "MultiplierFailure",
    "ReasonCode",
    "ShsConditionReport",
    "find_nhs_multiplier",
    "find_nonstrict_multiplier",
    "find_strict_multiplier",
    "is_copositive",
    "shs_condition",
    "CoeffVecPolynomial",
    "homogenize",
    "index_to_multidegree",
    "ConvexCombination",
    "DivergenceError",
    "LfhdCandidate",
    "LfhdReport",
    "ScanResult",
    "SwitchedSystem",
    "SynthesisResult",
    "Trajectory",
    "check_lfhd",
    "derivative_along",
    "linear_combination_eigencheck",
    "linear_matrix",
    "scan_combinations",
    "simulate_min_switching",
    "synthesize_combination_n2",
    "__version__",
]
