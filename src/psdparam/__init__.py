"""Definiteness certificates for symmetric linear parametric interval matrices.

The model is a family A(p) = sum_k A_k p_k with fixed symmetric
coefficient matrices and each parameter p_k ranging over an interval.
The package decides strong definiteness (for every parameter point) and
attacks weak definiteness (for some point), and applies the machinery to
certify convexity of cubic polynomials on boxes through their exactly
linear parametric Hessians.
"""

from .cubic import (
    ConvexityResult,
    CubicPolynomial,
    certify_convexity,
    hessian,
    hessian_coefficients,
    parse,
    poly_value,
)
from .definiteness import (
    BeeckWitness,
    CounterexampleVertex,
    NecessaryFailure,
    SplitWitness,
    Status,
    Verdict,
    VertexList,
    WitnessPoint,
    decide,
    hertz_min_eig,
    strong_pd,
    strong_pd_regularity,
    strong_pd_split,
    strong_psd,
    strong_psd_interval,
    strong_psd_split,
    weak_pd_necessary,
)
from .intervals import (
    AsymmetricMatrixError,
    Interval,
    IntervalMatrix,
    contains,
)
from .parametric import (
    FamilyOverflowError,
    ParameterBox,
    ParametricSymMatrix,
    VertexAssignment,
    evaluate,
    family_tol,
    precondition_relax,
    problem_from_json,
    relax,
    vertices,
)
from .symlinalg import (
    ConvergenceError,
    PerronBracket,
    PsdSplit,
    SingularMatrixError,
    SymMatrix,
    determinant,
    eig_stack,
    eig_sym,
    invert,
    min_eig,
    min_eigs,
    passes,
    psd_split,
    spectral_radius_nonneg,
)

__version__ = "0.1.0"
