"""Exact Ricci curvature and Schouten-like soliton classification for
nilpotent metric Lie algebras given by structure constants."""

from .algfile import AlgebraFile, parse_algebra_file, render_algebra_file
from .catalog import (
    ALGEBRA_IDS,
    ClassificationEntry,
    UnknownAlgebraError,
    classification_entry,
    classification_table,
    get_algebra,
    verify_entry,
)
from .curvature import (
    ricci_operator,
    ricci_tensor_general,
    ricci_tensor_nilpotent,
    scalar_curvature,
)
from .liealg import (
    ConstraintViolationError,
    DimensionMismatchError,
    InvalidAlgebraError,
    MetricLieAlgebra,
    ParameterConstraint,
    SignViolationError,
)
from .quadfield import MixedRadicandError, QuadRat
from .ratpoly import (
    MissingParameterError,
    Monomial,
    Polynomial,
    Rational,
    ZeroPolynomialError,
)
from .soliton import (
    CandidateDerivation,
    NotNilpotentAtSampleError,
    ObstructionSystem,
    SolitonVerdict,
    candidate_derivation,
    derivation_residual,
    nilsoliton_check,
    numeric_soliton_oracle,
    obstruction_system,
    schouten_like_check,
    symmetric_derivation_check,
)

__version__ = "0.1.0"

__all__ = [
    "ALGEBRA_IDS",
    "AlgebraFile",
    "CandidateDerivation",
    "ClassificationEntry",
    "ConstraintViolationError",
    "DimensionMismatchError",
    "InvalidAlgebraError",
    "MetricLieAlgebra",
    "MissingParameterError",
    "MixedRadicandError",
    "Monomial",
    "NotNilpotentAtSampleError",
    "ObstructionSystem",
    "ParameterConstraint",
    "Polynomial",
    "QuadRat",
    "Rational",
    "SignViolationError",
    "SolitonVerdict",
    "UnknownAlgebraError",
    "ZeroPolynomialError",
    "candidate_derivation",
    "classification_entry",
    "classification_table",
    "derivation_residual",
    "get_algebra",
    "nilsoliton_check",
    "numeric_soliton_oracle",
    "obstruction_system",
    "parse_algebra_file",
    "render_algebra_file",
    "ricci_operator",
    "ricci_tensor_general",
    "ricci_tensor_nilpotent",
    "scalar_curvature",
    "schouten_like_check",
    "symmetric_derivation_check",
    "verify_entry",
]
